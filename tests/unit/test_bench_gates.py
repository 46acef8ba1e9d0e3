"""The gates of ``benchmarks/bench_lang_pipeline.py``, driven on
synthetic entbench detail payloads (no timing): the baseline
regression gate, the transient-speedup gate and the jit-over-vm gate.
Also what the send loop behind the gated ``send.elide`` cells executes,
and ``benchmarks/bench_fleet.py``'s unmeasured scaling ratio."""

import importlib.util
import json
import os
import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load(name, where="benchmarks"):
    spec = importlib.util.spec_from_file_location(
        f"{where}_{name}", _ROOT / where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench = _load("bench_lang_pipeline")

SEND_VM = ("send.elide/vm", "exec")
SEND_JIT = ("send.elide/jit", "exec")

#: Normalised medians (ms) per (cell, part), as ``ent_exec`` names them.
BASE = {("send.elide/walk", "exec"): 16.0, SEND_VM: 8.0, SEND_JIT: 4.0,
        ("poly/walk", "compile"): 1.25,
        ("residual.full/walk", "exec"): 30.0,
        ("residual.transient/walk", "exec"): 20.0,
        ("residual.full/vm", "exec"): 20.0,
        ("residual.transient/vm", "exec"): 10.0,
        ("residual.full/jit", "exec"): 16.0,
        ("residual.transient/jit", "exec"): 8.0}


def detail(times=BASE, **fields):
    """An entbench ``ent_exec`` detail payload with these medians."""
    cells = {}
    for (cell, part), ms in times.items():
        cells.setdefault(cell, {})[part] = {"median": ms, "n": 12,
                                            "tail": None}
    return {"workload": "ent_exec", "seed": 0, "seconds": 10.0,
            "trace": 0, "errors": [], "cells": cells, **fields}


def report(times=BASE, **fields):
    return bench.summarise([detail(times, **fields)])


def without(key):
    return {k: v for k, v in BASE.items() if k != key}


class TestCheckAgainst:
    def test_within_bound_passes(self):
        fresh = {key: value * 1.5 for key, value in BASE.items()}
        ok, lines = bench.check_against(report(fresh), report(), 1.5)
        assert ok
        assert len(lines) == len(bench.REGRESSION_CELLS)

    def test_smoke_regression_fails(self):
        for key in bench.REGRESSION_CELLS:
            fresh = {**BASE, key: BASE[key] * 1.5 + 1e-3}
            ok, lines = bench.check_against(report(fresh), report(), 1.5)
            assert not ok
            assert [line.split(":")[0].strip() for line in lines
                    if "REGRESSION" in line] == [" ".join(key)]

    def test_non_smoke_regression_passes(self):
        fresh = {**BASE, ("residual.full/vm", "exec"): 200.0}
        ok, _ = bench.check_against(report(fresh), report(), 1.5)
        assert ok

    def test_smoke_key_missing_from_payload_fails(self):
        for key in bench.REGRESSION_CELLS:
            ok, lines = bench.check_against(report(without(key)),
                                            report(), 1.5)
            assert not ok
            assert any(" ".join(key) in line
                       and "MISSING from the report" in line
                       for line in lines)

    def test_empty_baseline_fails(self):
        ok, lines = bench.check_against(report(), {}, 1.5)
        assert not ok
        missing = [line for line in lines if "MISSING" in line]
        assert len(missing) == len(bench.REGRESSION_CELLS)

    def test_cell_missing_from_baseline_fails(self):
        key = ("poly/walk", "compile")
        ok, lines = bench.check_against(report(), report(without(key)),
                                        1.5)
        assert not ok
        assert any("MISSING from the baseline" in line for line in lines)

    def test_bare_number_baseline_entries(self):
        # The baseline holds bare medians; a detail file holds
        # summaries.  The first summarises the second.
        baseline = report()
        assert baseline["cells"]["poly/walk"] == {"compile": 1.25}
        ok, lines = bench.check_against(report(), baseline, 1.5)
        assert ok
        assert all(line.endswith("(1.00x)") for line in lines)

    @pytest.mark.parametrize("field, value", [
        ("seed", 7), ("workload", "ent_compile"), ("trace", 1)])
    def test_other_inputs_fail(self, field, value):
        ok, lines = bench.check_against(report(**{field: value}),
                                        report(), 1.5)
        assert not ok
        assert lines[0].startswith(f"{field}:") and "MISMATCH" in lines[0]


class TestCheckRatios:
    def test_no_thresholds_is_a_no_op(self):
        assert bench.check_ratios(report({})) == (True, [])

    @pytest.mark.parametrize("vm,jit,ok", [(2.2, 3.5, True),
                                           (1.2, 3.5, False),
                                           (2.2, 1.29, False)])
    def test_transient_gate(self, vm, jit, ok):
        fresh = {**BASE, ("residual.full/vm", "exec"): vm * 10.0,
                 ("residual.full/jit", "exec"): jit * 8.0}
        got, lines = bench.check_ratios(report(fresh),
                                        min_transient_speedup=1.3)
        assert got is ok
        assert len(lines) == len(bench.TRANSIENT_GATED)

    def test_transient_gate_ignores_walk(self):
        fresh = {**BASE, ("residual.full/walk", "exec"): 20.0}
        assert bench.check_ratios(report(fresh),
                                  min_transient_speedup=1.3)[0]

    def test_transient_gate_missing_ratio_fails(self):
        fresh = without(("residual.transient/jit", "exec"))
        ok, lines = bench.check_ratios(report(fresh),
                                       min_transient_speedup=1.3)
        assert not ok
        assert any("[jit]" in line and "MISSING" in line for line in lines)

    @pytest.mark.parametrize("jit,ok", [(0.01, True), (0.0125, True),
                                        (0.015, False)])
    def test_jit_over_vm_gate(self, jit, ok):
        fresh = {**BASE, SEND_VM: 0.02, SEND_JIT: jit}
        got, lines = bench.check_ratios(report(fresh), min_jit_over_vm=1.5)
        assert got is ok
        assert len(lines) == 1 and "jit over vm" in lines[0]

    def test_jit_over_vm_missing_bench_fails(self):
        ok, lines = bench.check_ratios(report(without(SEND_JIT)),
                                       min_jit_over_vm=1.5)
        assert not ok
        assert "MISSING" in lines[0]

    def test_both_gates_report_together(self):
        fresh = {**BASE, SEND_JIT: 8.0}
        ok, lines = bench.check_ratios(report(fresh),
                                       min_transient_speedup=1.3,
                                       min_jit_over_vm=1.5)
        assert not ok
        assert len(lines) == 3


def _regression(fresh):
    return bench.check_against(fresh, report(), 1.5)[0]


def _transient(fresh):
    return bench.check_ratios(fresh, min_transient_speedup=1.5)[0]


def _jit_over_vm(fresh):
    return bench.check_ratios(fresh, min_jit_over_vm=1.5)[0]


@pytest.mark.parametrize("gate, key, at, past", [
    (_regression, SEND_VM, 12.0, 12.01),
    (_regression, ("poly/walk", "compile"), 1.875, 1.88),
    (_transient, ("residual.full/jit", "exec"), 12.0, 11.99),
    (_jit_over_vm, SEND_VM, 6.0, 5.99),
], ids=["send", "typecheck", "transient", "jit_over_vm"])
def test_gate_passes_at_its_bound_and_fails_past_it(gate, key, at, past):
    # Every bound is 1.5x, and each ``at`` value sits exactly on it.
    assert gate(report({**BASE, key: at}))
    assert not gate(report({**BASE, key: past}))


class TestDetailFiles:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def gate(self, tmp_path, details, *flags):
        paths = [self.write(tmp_path, f"d{i}.json", d)
                 for i, d in enumerate(details)]
        return bench.main([*paths, "--out", str(tmp_path / "out.json"),
                           *flags])

    def test_report_round_trips_as_the_baseline(self, tmp_path):
        base = str(tmp_path / "base.json")
        assert bench.main([self.write(tmp_path, "d.json", detail()),
                           "--out", base]) == 0
        assert self.gate(tmp_path, [detail()], "--check", base,
                         "--max-regression", "1.5",
                         "--min-transient-speedup", "1.3",
                         "--min-jit-over-vm", "1.5") == 0

    def test_errors_fail(self, tmp_path):
        bad = detail(errors=["send.elide/vm: OracleError('...')"])
        assert self.gate(tmp_path, [bad]) == 1

    @pytest.mark.parametrize("field, value", [
        ("seed", 3), ("workload", "fleet")])
    def test_other_inputs_than_the_baseline_fail(self, tmp_path, field,
                                                 value):
        base = self.write(tmp_path, "base.json", report())
        assert self.gate(tmp_path, [detail()], "--check", base) == 0
        assert self.gate(tmp_path, [detail(**{field: value})],
                         "--check", base) == 1

    def test_files_that_disagree_fail(self, tmp_path):
        assert self.gate(tmp_path, [detail(), detail(seed=1)]) == 1

    def test_cells_are_the_median_of_the_files(self, tmp_path):
        runs = [{**BASE, SEND_VM: ms} for ms in (9.0, 7.0, 30.0)]
        assert self.gate(tmp_path, [detail(t) for t in runs]) == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["runs"] == 3
        assert out["cells"]["send.elide/vm"]["exec"] == 9.0


class TestReporterPrograms:
    """The jit-over-vm gate and the send cells of ``--check`` time
    entbench's seed-0 send loop with the elision plan applied; that
    plan must leave the loop no dfall check to execute."""

    gen = _load("gen", "entbench")

    @pytest.mark.parametrize("engine", bench.ENGINES)
    def test_hot_loop_elision_removes_every_loop_dfall(self, engine):
        from repro.analysis import plan_elisions
        from repro.lang.interp import Interpreter, InterpOptions
        from repro.lang.typechecker import check_program

        program = self.gen.exec_programs(0)["send"]
        trips = self.gen.SEND_TRIPS

        def run(plan):
            checked = check_program(program.source)
            if plan:
                plan_elisions(checked)
            interp = Interpreter(checked,
                                 options=InterpOptions(engine=engine))
            interp.run()
            assert tuple(interp.output) == program.expected
            return interp.stats

        plain, elided = run(False), run(True)
        assert plain.dfall_checks == trips + 1
        assert elided.dfall_elided == trips
        # The one check left is the boot message to Main.main.
        assert elided.dfall_checks == 1


class TestFleetScaling:
    """``bench_fleet.py`` records the scaling ratio as unmeasured when
    the host has fewer cores than the highest shard count."""

    fleet = _load("bench_fleet")

    @pytest.mark.parametrize("cores", [1, 2])
    def test_ratio_needs_the_cores(self, tmp_path, monkeypatch, capsys,
                                   cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        out = tmp_path / "fleet.json"
        assert self.fleet.main(["--devices", "4", "--steps", "2",
                                "--shard-counts", "1,2", "--gate", "100",
                                "--skip-embedded", "--out", str(out)]) \
            == (0 if cores < 2 else 1)
        payload = json.loads(out.read_text())
        assert payload["digests_identical"]
        if cores < 2:
            assert payload["scaling_ratio"] is None
            assert "1 cores < 2 shards" in \
                payload["unmeasured"]["scaling_ratio"]
            assert payload["gate"] == "skipped (1 cores < 2 shards)"
        else:
            assert payload["scaling_ratio"] > 0
            assert payload["unmeasured"] == {}
            assert payload["gate"].startswith("FAILED")
