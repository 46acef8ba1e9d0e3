"""Unit tests for the fleet-scale device simulation service."""

import json

import pytest

from repro.cli import main
from repro.fleet import FleetSpec, device_params, run_fleet
from repro.fleet.service import FleetReport, _fold, partition
from repro.fleet.shard import ShardTask, run_shard
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry


SPEC = FleetSpec(devices=120, seed=11)


class TestPartition:
    def test_covers_population_contiguously(self):
        for devices in (0, 1, 7, 100):
            for shards in (1, 3, 8, 200):
                ranges = partition(devices, shards)
                flat = [i for start, stop in ranges
                        for i in range(start, stop)]
                assert flat == list(range(devices))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start for start, stop in partition(100, 7)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_never_more_shards_than_devices(self):
        assert len(partition(3, 8)) == 3
        assert partition(0, 8) == [(0, 0)]


class TestDeviceParams:
    def test_partition_independent_derivation(self):
        # The whole determinism story rests on this: device i's
        # parameters do not depend on which shard materializes them.
        a = device_params(SPEC, 42)
        b = device_params(SPEC, 42)
        assert (a.system, a.profile, a.archetype, a.load_k,
                a.platform_seed, a.start_fraction) == \
               (b.system, b.profile, b.archetype, b.load_k,
                b.platform_seed, b.start_fraction)
        assert a.stream.getstate() == b.stream.getstate()

    def test_seed_changes_population(self):
        other = FleetSpec(devices=120, seed=12)
        assert any(
            device_params(SPEC, i).platform_seed
            != device_params(other, i).platform_seed
            for i in range(20))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="devices"):
            FleetSpec(devices=-1)
        with pytest.raises(ValueError, match="steps"):
            FleetSpec(devices=1, steps=0)
        with pytest.raises(ValueError, match="non-empty"):
            FleetSpec(devices=1, system_mix=())


class TestAggregateInvariance:
    def test_shard_count_invariant(self):
        digests = [run_fleet(SPEC, shards=k).aggregate_digest()
                   for k in (1, 2, 3)]
        assert digests[0] == digests[1] == digests[2]

    def test_arrival_order_invariant(self):
        # Fold the same shard results in deliberately shuffled orders;
        # every aggregate is integer-exact, so the fold is exactly
        # commutative.
        tasks = [ShardTask(spec=SPEC, shard_index=i, start=start,
                           stop=stop)
                 for i, (start, stop) in enumerate(partition(120, 4))]
        results = [run_shard(task) for task in tasks]
        digests = []
        for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            report = FleetReport(spec=SPEC, engine="batched", shards=4)
            for index in order:
                _fold(report, results[index])
            digests.append(report.aggregate_digest())
        assert digests[0] == digests[1] == digests[2]

    def test_engine_differential(self):
        # The batched engine's only job is to amortize construction;
        # its aggregates must equal the fresh-objects reference.
        batched = run_fleet(SPEC, shards=1, engine="batched")
        embedded = run_fleet(SPEC, shards=1, engine="embedded")
        assert batched.aggregate_digest() == embedded.aggregate_digest()

    def test_devices_and_steps_counted(self):
        report = run_fleet(SPEC, shards=1)
        assert report.devices == 120
        counters = report.registry.counters
        assert counters["fleet.devices"].value == 120
        assert counters["fleet.steps"].value <= 120 * SPEC.steps
        assert counters["fleet.pushes"].value >= \
            counters["fleet.violations"].value

    def test_progress_reports_each_shard_once(self):
        seen = []
        report = run_fleet(SPEC, shards=3, progress=seen.append)
        assert sorted(result.shard_index for result in seen) == [0, 1, 2]
        assert report.aggregate_digest() == \
            run_fleet(SPEC, shards=1).aggregate_digest()

    def test_nonpositive_shards_run_in_process(self, monkeypatch):
        # The CLI rejects --shards < 1; the API keeps treating any
        # shards <= 1 as one in-process shard.
        def no_pool(*args, **kwargs):
            raise AssertionError("started a process pool")

        monkeypatch.setattr("repro.core.pool.ProcessPoolExecutor", no_pool)
        spec = FleetSpec(devices=20, seed=4)
        expected = run_fleet(spec, shards=1).aggregate_digest()
        for shards in (0, -2):
            report = run_fleet(spec, shards=shards)
            assert report.shards == 1
            assert report.aggregate_digest() == expected

    def test_empty_fleet(self):
        report = run_fleet(FleetSpec(devices=0), shards=4)
        assert report.devices == 0
        assert report.aggregate_digest()["counters"] == {}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet engine"):
            run_fleet(SPEC, engine="warp")
        with pytest.raises(ValueError, match="unknown fleet engine"):
            run_shard(ShardTask(spec=SPEC, shard_index=0, start=0,
                                stop=1, engine="warp"))


class TestFleetReport:
    def test_render_mentions_key_aggregates(self):
        report = run_fleet(FleetSpec(devices=30, seed=3), shards=1)
        text = report.render()
        assert "30 devices" in text
        assert "violations" in text
        assert "mode dwell" in text

    def test_as_dict_roundtrips_through_json(self):
        report = run_fleet(FleetSpec(devices=10, seed=3), shards=1)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["devices"] == 10
        assert payload["metrics"]["counters"]["fleet.devices"] == 10

    def test_profile_check_sites_merge(self):
        report = run_fleet(SPEC, shards=3)
        sites = report.profile.check_sites
        assert sites["dfall@FleetUplink.push"]["executed"] == \
            report.registry.counters["fleet.runtime.dfall_checks"].value


class TestFleetCli:
    def test_digest_invariant_across_shards(self, capsys):
        assert main(["fleet", "run", "--devices", "60", "--seed", "9",
                     "--shards", "1", "--digest"]) == 0
        one = capsys.readouterr().out
        assert main(["fleet", "run", "--devices", "60", "--seed", "9",
                     "--shards", "2", "--digest"]) == 0
        two = capsys.readouterr().out
        assert one == two
        assert json.loads(one)["counters"]["fleet.devices"] == 60

    def test_json_report(self, capsys):
        assert main(["fleet", "run", "--devices", "20", "--steps", "4",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["devices"] == 20
        assert payload["engine"] == "batched"

    def test_metrics_out_prometheus(self, tmp_path, capsys):
        out = tmp_path / "fleet.prom"
        assert main(["fleet", "run", "--devices", "25",
                     "--metrics-out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# TYPE repro_counter counter")
        assert 'repro_counter{name="fleet.devices"} 25' in text
        assert 'repro_histogram_bucket{name="fleet.device_energy_uj"' \
            in text
        # Every histogram ends with the +Inf bucket equal to _count.
        assert 'le="+Inf"} 25' in text


class TestPrometheusEscaping:
    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter('weird"name\\with\nnasties').inc(3)
        text = render_prometheus(registry)
        assert ('repro_counter{name="weird\\"name\\\\with\\nnasties"} 3'
                in text)
        assert "\n " not in text  # no raw newline leaked into a label

    def test_fleet_registry_renders_cleanly(self):
        report = run_fleet(FleetSpec(devices=15, seed=2), shards=1)
        text = render_prometheus(report.registry)
        for line in text.strip().splitlines():
            assert line.startswith(("#", "repro_")), line
