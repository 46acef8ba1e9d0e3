"""Integration tests over the E1/E2/E3 experiment harnesses: the
paper-shape assertions DESIGN.md commits to."""

import pytest

from repro.eval import (figure9, figure10, figure11, measure_overhead,
                        run_e1_episode, run_e2_episode, run_e3_episode,
                        trace_stats)
from repro.eval.config import VIOLATING_COMBOS
from repro.eval.e3 import HOT_THRESHOLD_C, OVERHEAT_THRESHOLD_C
from repro.workloads import ES, FT, MG, get_workload


class TestE1Episodes:
    def test_non_violating_combo_no_exception(self):
        episode = run_e1_episode(get_workload("jspider"), "A", FT, MG)
        assert not episode.exception_raised
        assert episode.qos_mode == MG
        assert episode.energy_j > 0

    @pytest.mark.parametrize("boot,workload_mode", VIOLATING_COMBOS)
    def test_violating_combo_throws(self, boot, workload_mode):
        episode = run_e1_episode(get_workload("jspider"), "A", boot,
                                 workload_mode)
        assert episode.exception_raised
        assert episode.qos_mode == ES  # QoS scaled down

    def test_silent_never_throws(self):
        episode = run_e1_episode(get_workload("jspider"), "A", ES, FT,
                                 silent=True)
        assert not episode.exception_raised
        assert episode.qos_mode == MG  # default QoS retained

    def test_ent_saves_vs_silent_on_violation(self):
        workload = get_workload("sunflow")
        ent = run_e1_episode(workload, "A", ES, FT)
        silent = run_e1_episode(workload, "A", ES, FT, silent=True)
        assert ent.energy_j < silent.energy_j

    def test_matching_combo_equals_silent_roughly(self):
        workload = get_workload("crypto")
        ent = run_e1_episode(workload, "A", FT, FT)
        silent = run_e1_episode(workload, "A", FT, FT, silent=True)
        assert ent.energy_j == pytest.approx(silent.energy_j, rel=0.10)

    def test_violating_property(self):
        episode = run_e1_episode(get_workload("crypto"), "A", MG, FT)
        assert episode.violating
        episode = run_e1_episode(get_workload("crypto"), "A", FT, MG)
        assert not episode.violating


class TestFigure9Shape:
    @pytest.fixture(scope="class")
    def bars(self):
        return figure9(systems=("A",))

    def test_every_violating_bar_saves_energy(self, bars):
        """The paper's headline: respecting the waterfall saves energy
        in all exception-throwing combos."""
        for bar in bars:
            assert bar.percent_saved > 0, bar.benchmark

    def test_savings_magnitudes_in_band(self, bars):
        # Paper Figure 9 System A: roughly 7% - 58% savings.
        for bar in bars:
            assert 3.0 < bar.percent_saved < 75.0, (
                bar.benchmark, bar.percent_saved)

    def test_normalization_baseline(self, bars):
        # The silent ft/ft run is the 1.0 reference, so silent bars on
        # the ft-workload combos sit at ~1.0.
        for bar in bars:
            if bar.workload_mode == FT:
                assert bar.silent_normalized == pytest.approx(1.0,
                                                              rel=0.05)

    def test_six_system_a_benchmarks(self, bars):
        assert len({bar.benchmark for bar in bars}) == 6
        assert len(bars) == 18  # 3 combos each


class TestE2Episodes:
    def test_boot_mode_selects_qos(self):
        for boot in (ES, MG, FT):
            episode = run_e2_episode(get_workload("sunflow"), "A", boot)
            assert episode.qos_mode == boot

    def test_energy_proportionality_system_a(self):
        rows = figure10(systems=("A",))
        for row in rows:
            assert row.energy_proportional, row.benchmark

    def test_sunflow_savings_match_paper(self):
        rows = {r.benchmark: r for r in figure10(systems=("A",))}
        # Paper: 65.24% / 42.28%.
        assert rows["sunflow"].percent_saved(ES) == pytest.approx(
            65.24, abs=6.0)
        assert rows["sunflow"].percent_saved(MG) == pytest.approx(
            42.28, abs=6.0)

    def test_pi_benchmarks_smaller_savings(self):
        """Section 6.2: Pi-specific (time-fixed) benchmarks yield less
        percentage savings than the ported compute benchmarks."""
        rows = {r.benchmark: r for r in figure10(systems=("B",))}
        for pi_specific in ("camera", "video", "javaboy"):
            assert (rows[pi_specific].percent_saved(ES)
                    < rows["sunflow"].percent_saved(ES))

    def test_javaboy_near_paper_value(self):
        rows = {r.benchmark: r for r in figure10(systems=("B",))}
        # Paper: 1.34%.
        assert rows["javaboy"].percent_saved(ES) == pytest.approx(
            1.34, abs=1.5)

    def test_time_fixed_durations_equal_across_boots(self):
        durations = []
        for boot in (ES, FT):
            episode = run_e2_episode(get_workload("video"), "B", boot)
            durations.append(episode.duration_s)
        assert durations[0] == pytest.approx(durations[1], rel=0.02)


class TestE3Shape:
    @pytest.fixture(scope="class")
    def pairs(self):
        return {p.benchmark: p for p in figure11()}

    def test_java_hotter_than_ent(self, pairs):
        for name, pair in pairs.items():
            ent = trace_stats(pair.ent)["tail_mean_c"]
            java = trace_stats(pair.java)["tail_mean_c"]
            assert java > ent, name

    def test_ent_hovers_near_hot_threshold(self, pairs):
        """Most ENT runs hover around the hot threshold — sunflow being
        the exception that hovers near the overheating threshold."""
        for name in ("jython", "findbugs", "pagerank", "xalan"):
            tail = trace_stats(pairs[name].ent)["tail_mean_c"]
            assert abs(tail - HOT_THRESHOLD_C) < 5.0, (name, tail)
        sunflow_tail = trace_stats(pairs["sunflow"].ent)["tail_mean_c"]
        assert abs(sunflow_tail - OVERHEAT_THRESHOLD_C) < 4.0

    def test_java_climbs_continuously(self, pairs):
        for name, pair in pairs.items():
            temps = [t for _, t in pair.java.trace]
            # The last quarter should be hotter than the first quarter.
            quarter = max(1, len(temps) // 4)
            assert (sum(temps[-quarter:]) / quarter
                    > sum(temps[:quarter]) / quarter + 5.0), name

    def test_ent_sleeps_java_does_not(self, pairs):
        for pair in pairs.values():
            assert pair.ent.sleeps > 0
            assert pair.java.sleeps == 0

    def test_short_ent_run_records_a_trace(self):
        trace = run_e3_episode(get_workload("xalan"), "ent", seed=0,
                               units=60)
        assert trace.trace
        assert trace.sleeps >= 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_e3_episode(get_workload("sunflow"), "sometimes")

    def test_unit_less_workload_rejected(self):
        with pytest.raises(ValueError):
            run_e3_episode(get_workload("crypto"), "ent")


class TestOverhead:
    def test_overhead_small(self):
        """Figure 6: runtime support costs within a few percent."""
        row = measure_overhead("jspider", repeats=5)
        assert abs(row.overhead_percent) < 15.0

    @pytest.mark.parametrize("baseline", [False, True],
                             ids=["ent", "baseline"])
    def test_timed_episode_does_work(self, baseline):
        """The episode Figure 6 times, under the full runtime and the
        no-op-snapshot baseline."""
        from repro.eval.overhead import _build_episode

        run, _ = _build_episode(get_workload("jspider"), "A",
                                baseline=baseline, seed=1)
        assert run().units_done > 0

    def test_runtime_bill_is_counted_not_timed(self):
        """Figure 6's overhead is the runtime's mechanism bill over the
        baseline's kernel time.  Without timing anything: on all 15
        benchmarks one episode bills one snapshot and one message, and
        the full runtime does exactly the baseline's simulated work."""
        from repro.eval.overhead import _build_episode, _episode_counts
        from repro.workloads.registry import ALL_WORKLOADS

        for workload in ALL_WORKLOADS:
            system = workload.systems[0]
            assert _episode_counts(workload, system, seed=1) == {
                "snapshots": 1, "messages": 1, "elims": 0}, workload.name
            ent, ent_rt = _build_episode(workload, system,
                                         baseline=False, seed=1)
            base, base_rt = _build_episode(workload, system,
                                           baseline=True, seed=1)
            assert ent() == base(), workload.name
            assert ent_rt.platform.energy_total_j() == \
                base_rt.platform.energy_total_j(), workload.name

    def test_static_columns(self):
        row = measure_overhead("batik", repeats=1)
        assert row.cloc == 179_284
        assert row.ent_changes == 225


class TestReproducibility:
    def test_same_seed_same_energy(self):
        a = run_e1_episode(get_workload("crypto"), "A", MG, MG, seed=3)
        b = run_e1_episode(get_workload("crypto"), "A", MG, MG, seed=3)
        assert a.energy_j == pytest.approx(b.energy_j)

    def test_different_seeds_differ(self):
        energies = {round(run_e1_episode(get_workload("crypto"), "A",
                                         MG, MG, seed=s).energy_j, 6)
                    for s in range(5)}
        assert len(energies) > 1

    def test_system_c_noisier_than_a(self):
        """Section 5's data-collection observation: System C has the
        highest relative standard deviation."""
        import statistics

        def rel_std(system, name):
            energies = [run_e1_episode(get_workload(name), system, FT,
                                       MG, seed=s).energy_j
                        for s in range(1, 9)]
            return statistics.pstdev(energies) / statistics.mean(energies)

        assert rel_std("C", "duckduckgo") > rel_std("A", "findbugs")
