"""The paper's claims, checked over the committed ``results/*.json``.

CI's ``fleet-smoke`` job re-exports every deterministic artifact
and diffs it against ``results/`` byte for byte, so these checks hold
for the code as well as for the files.  figure6 holds wall-clock
overheads, which CI does not re-pin; its band is checked on the
committed measurement.
"""

import json
import pathlib
import statistics

import pytest

from repro.eval.export import ARTIFACTS
from repro.workloads import BATTERY_MODES, ES, MG

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def load(name):
    return json.loads((RESULTS / f"{name}.json").read_text())


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_every_artifact_is_committed(name):
    for suffix in (".json", ".txt"):
        assert (RESULTS / f"{name}{suffix}").is_file()


def test_figure6_overheads_in_band():
    rows = load("figure6")
    assert len(rows) == 15
    for row in rows:
        # The paper's band: overhead indistinguishable from noise
        # (|x| <= 3.41% on its testbed); the decomposed estimator
        # gives a small non-negative figure.
        assert 0.0 <= row["overhead_percent"] < 5.0, row["benchmark"]


def test_figure8_exception_iff_workload_exceeds_boot():
    rank = {mode: index for index, mode in enumerate(BATTERY_MODES)}
    cells = {(c["benchmark"], c["boot_mode"], c["workload_mode"],
              c["silent"]): c for c in load("figure8")}
    benchmarks = {key[0] for key in cells}
    assert len(benchmarks) == 6
    for name in benchmarks:
        for boot in BATTERY_MODES:
            for workload in BATTERY_MODES:
                ent = cells[(name, boot, workload, False)]
                silent = cells[(name, boot, workload, True)]
                assert ent["exception"] == (rank[workload] > rank[boot]), (
                    name, boot, workload)
                assert ent["energy_j"] > 0.0
                if ent["exception"]:
                    assert ent["energy_j"] < silent["energy_j"], (
                        name, boot, workload)


def test_figure9_every_bar_saves_below_the_ceiling():
    bars = load("figure9")
    assert len(bars) == (6 + 5 + 4) * 3
    for bar in bars:
        key = (bar["system"], bar["benchmark"], bar["boot_mode"])
        assert 0.0 < bar["percent_saved"] < 85.0, key
        assert bar["ent_normalized"] <= bar["silent_normalized"], key


#: Paper values for the % saved by the energy_saver boot (Figure 10),
#: with generous tolerances for the simulated substrate.
PAPER_ES_SAVINGS = {
    ("A", "sunflow"): (65.24, 8.0),
    ("A", "crypto"): (17.8, 8.0),
    ("B", "camera"): (6.39, 4.0),
    ("B", "video"): (19.63, 6.0),
    ("B", "javaboy"): (1.34, 1.5),
}


def test_figure10_energy_proportional_on_every_row():
    rows = load("figure10")
    assert len(rows) == 6 + 5 + 4
    for row in rows:
        key = (row["system"], row["benchmark"])
        energy, saved = row["energy_j"], row["percent_saved"]
        assert row["energy_proportional"], key
        assert energy[ES] <= energy[MG] <= energy["full_throttle"], key
        assert saved[ES] >= saved[MG] - 0.5, key


@pytest.mark.parametrize("key", PAPER_ES_SAVINGS,
                         ids=lambda key: "-".join(key))
def test_figure10_matches_the_paper(key):
    row = next(row for row in load("figure10")
               if (row["system"], row["benchmark"]) == key)
    expected, tolerance = PAPER_ES_SAVINGS[key]
    assert row["percent_saved"][ES] == pytest.approx(expected,
                                                     abs=tolerance)


class TestStddevBands:
    """Section 5: relative std dev within 2% for >= 93% of System A
    experiments (3% for >= 99%), within 2% for all of System B, and
    higher on System C (within 5% for 94.7%)."""

    @pytest.fixture(scope="class")
    def bands(self):
        return load("stddev_bands")

    @staticmethod
    def share(bands, system, limit):
        devs = [band["rel_std_percent"] for band in bands
                if band["system"] == system]
        return sum(dev <= limit for dev in devs) / len(devs)

    def test_every_figure9_pair_under_the_protocol(self, bands):
        figure9_pairs = list(dict.fromkeys(
            (bar["system"], bar["benchmark"]) for bar in load("figure9")))
        assert [(b["system"], b["benchmark"]) for b in bands] == \
            figure9_pairs
        for band in bands:
            energies = band["energies_j"]
            assert len(energies) == 10
            assert band["discarded_first"] == (band["system"] != "C")
            rel_std = 100 * statistics.pstdev(energies) \
                / statistics.mean(energies)
            assert rel_std == pytest.approx(band["rel_std_percent"],
                                            abs=0.01)

    def test_system_a(self, bands):
        assert self.share(bands, "A", 2.0) >= 0.93
        assert self.share(bands, "A", 3.0) >= 0.99

    def test_system_b(self, bands):
        assert self.share(bands, "B", 2.0) == 1.0

    def test_system_c_is_noisier(self, bands):
        assert self.share(bands, "C", 5.0) >= 0.947

        def largest(system):
            return max(band["rel_std_percent"] for band in bands
                       if band["system"] == system)

        assert largest("C") > largest("A")


def test_ablation_governor_ondemand_amplifies_the_saving():
    saved = {row["governor"]: row["percent_saved"]
             for row in load("ablation_governor")}
    assert saved["ondemand"] > saved["performance"] > 0.0


def test_ablation_e3_sleep_longer_sleeps_cool_the_plateau():
    ablation = load("ablation_e3_sleep")
    sweep = ablation["sweep"]
    assert [row["hot_sleep_ms"] for row in sweep] == [0, 125, 250, 500]
    tails = [row["tail_mean_c"] for row in sweep]
    for cooler, hotter in zip(tails[1:], tails):
        assert cooler <= hotter + 0.3, tails
    # With every interval at 0 ms the ENT run degenerates to Java.
    assert ablation["zero_sleeps"]["tail_mean_c"] == pytest.approx(
        ablation["java"]["tail_mean_c"], abs=0.8)
