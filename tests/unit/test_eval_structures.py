"""Unit tests for the eval-layer data structures, config and renderers."""

import pytest

from repro.eval import (e1_benchmarks, e2_benchmarks, e3_benchmarks,
                        figure6_static_rows, figure7_rows,
                        format_figure7, render_table)
from repro.eval.config import ALL_COMBOS, VIOLATING_COMBOS
from repro.eval.e1 import Figure9Bar
from repro.eval.e2 import Figure10Row
from repro.eval.overhead import OverheadRow, measure_mechanism_costs
from repro.eval.runner import EpisodeResult
from repro.workloads import ES, FT, MG


class TestConfig:
    def test_violating_combos(self):
        assert VIOLATING_COMBOS == [(MG, FT), (ES, MG), (ES, FT)]

    def test_all_combos(self):
        assert len(ALL_COMBOS) == 9
        assert len(set(ALL_COMBOS)) == 9

    def test_benchmark_lists(self):
        assert len(e1_benchmarks("A")) == 6
        assert len(e1_benchmarks("B")) == 5
        assert len(e1_benchmarks("C")) == 4
        assert e1_benchmarks("A") == e2_benchmarks("A")
        assert len(e3_benchmarks()) == 5

    def test_figure7_rows_complete(self):
        rows = figure7_rows()
        assert len(rows) == 15
        for row in rows:
            for key in ("workload", "workload_es", "workload_ft",
                        "qos", "qos_es", "qos_ft"):
                assert row[key], (row["name"], key)

    def test_figure6_static_rows(self):
        rows = figure6_static_rows()
        assert len(rows) == 15
        names = [r["name"] for r in rows]
        assert "jspider" in names and "materiallife" in names


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [["xx", "y"], ["z", "wwwww"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        # All rows padded to the same width per column.
        assert lines[2].index("y") == lines[3].index("w")

    def test_format_figure7_contains_settings(self):
        text = format_figure7()
        assert "spidering depth" in text
        assert "anti-aliasing samples" in text
        assert "1920x1080" in text


class TestEpisodeResult:
    def _episode(self, boot, workload_mode):
        return EpisodeResult(
            benchmark="x", system="A", boot_mode=boot,
            workload_mode=workload_mode, qos_mode=MG, silent=False,
            energy_j=1.0, duration_s=1.0, exception_raised=False)

    def test_violating_matrix(self):
        order = [ES, MG, FT]
        for i, boot in enumerate(order):
            for j, wl in enumerate(order):
                assert self._episode(boot, wl).violating == (j > i)


class TestFigure9Bar:
    def test_percent_saved(self):
        bar = Figure9Bar(benchmark="x", system="A", boot_mode=MG,
                         workload_mode=FT, ent_energy_j=60.0,
                         silent_energy_j=100.0, ent_normalized=0.6,
                         silent_normalized=1.0)
        assert bar.percent_saved == pytest.approx(40.0)

    def test_zero_silent_guard(self):
        bar = Figure9Bar(benchmark="x", system="A", boot_mode=MG,
                         workload_mode=FT, ent_energy_j=1.0,
                         silent_energy_j=0.0, ent_normalized=1.0,
                         silent_normalized=0.0)
        assert bar.percent_saved == 0.0


class TestFigure10Row:
    def test_normalization_and_proportionality(self):
        row = Figure10Row(benchmark="x", system="A",
                          energy_j={ES: 50.0, MG: 75.0, FT: 100.0})
        assert row.normalized(ES) == pytest.approx(0.5)
        assert row.percent_saved(MG) == pytest.approx(25.0)
        assert row.energy_proportional

    def test_non_proportional_detected(self):
        row = Figure10Row(benchmark="x", system="A",
                          energy_j={ES: 80.0, MG: 75.0, FT: 100.0})
        assert not row.energy_proportional


class TestOverheadRow:
    def test_overhead_formula(self):
        row = OverheadRow(benchmark="x", description="", systems="A",
                          cloc=1, ent_changes=1, baseline_seconds=1.0,
                          mechanism_seconds=0.005)
        assert row.overhead_percent == pytest.approx(0.5)

    def test_zero_kernel_guard(self):
        row = OverheadRow(benchmark="x", description="", systems="A",
                          cloc=1, ent_changes=1, baseline_seconds=0.0,
                          mechanism_seconds=1.0)
        assert row.overhead_percent == 0.0

    def test_mechanism_costs_positive_and_cached(self):
        a = measure_mechanism_costs()
        b = measure_mechanism_costs()
        assert a is b
        assert a.snapshot_s >= 0
        assert a.message_s >= 0
        assert a.elim_s >= 0
        # The snapshot machinery costs more than an elimination.
        assert a.snapshot_s > a.elim_s
