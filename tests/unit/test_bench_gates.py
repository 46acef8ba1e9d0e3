"""The gates of ``benchmarks/bench_lang_pipeline.py``, driven on
synthetic payloads (no timing): the baseline regression gate, the
transient-speedup gate and the jit-over-vm gate."""

import importlib.util
import pathlib

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
           / "benchmarks" / "bench_lang_pipeline.py")


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_lang_pipeline",
                                                  _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def report(mins, transient=None):
    """A BENCH_lang-shaped payload with the given per-bench minima."""
    payload = {"benches": {key: {"min": value, "mean": value, "std": 0.0}
                           for key, value in mins.items()}}
    if transient is not None:
        payload["transient_speedup"] = transient
    return payload


BASE = {"hot_loop_walk_s": 0.08, "hot_loop_vm_s": 0.02,
        "hot_loop_jit_s": 0.01, "typechecker_s": 0.01, "lexer_s": 0.004}


class TestCheckAgainst:
    def test_within_bound_passes(self):
        fresh = {key: value * 1.5 for key, value in BASE.items()}
        ok, lines = bench.check_against(report(fresh), report(BASE), 2.0)
        assert ok
        assert len(lines) == len(BASE)

    def test_smoke_regression_fails(self):
        fresh = dict(BASE, hot_loop_vm_s=BASE["hot_loop_vm_s"] * 2.5)
        ok, lines = bench.check_against(report(fresh), report(BASE), 2.0)
        assert not ok
        assert any("hot_loop_vm_s" in line and "REGRESSION" in line
                   for line in lines)

    def test_non_smoke_regression_passes(self):
        fresh = dict(BASE, lexer_s=BASE["lexer_s"] * 10)
        ok, _ = bench.check_against(report(fresh), report(BASE), 2.0)
        assert ok

    def test_smoke_key_missing_from_payload_fails(self):
        fresh = {k: v for k, v in BASE.items() if k != "hot_loop_vm_s"}
        ok, lines = bench.check_against(report(fresh), report(BASE), 2.0)
        assert not ok
        assert any("hot_loop_vm_s" in line and "MISSING" in line
                   for line in lines)

    def test_empty_baseline_fails(self):
        ok, lines = bench.check_against(report(BASE), {}, 2.0)
        assert not ok
        missing = [line for line in lines if "MISSING" in line]
        assert len(missing) == len(bench.SMOKE_KEYS)

    def test_bare_number_baseline_entries(self):
        ok, _ = bench.check_against(report(BASE),
                                    {"benches": dict(BASE)}, 2.0)
        assert ok


class TestCheckRatios:
    def test_no_thresholds_is_a_no_op(self):
        assert bench.check_ratios(report({})) == (True, [])

    @pytest.mark.parametrize("vm,jit,ok", [(2.2, 3.5, True),
                                           (1.2, 3.5, False),
                                           (2.2, 1.29, False)])
    def test_transient_gate(self, vm, jit, ok):
        payload = report(BASE, transient={"walk": 1.0, "vm": vm,
                                          "jit": jit})
        got, lines = bench.check_ratios(payload, min_transient_speedup=1.3)
        assert got is ok
        assert len(lines) == len(bench.TRANSIENT_GATED)

    def test_transient_gate_ignores_walk(self):
        payload = report(BASE, transient={"walk": 1.0, "vm": 2.0,
                                          "jit": 2.0})
        assert bench.check_ratios(payload, min_transient_speedup=1.3)[0]

    def test_transient_gate_missing_ratio_fails(self):
        payload = report(BASE, transient={"vm": 2.0})
        ok, lines = bench.check_ratios(payload, min_transient_speedup=1.3)
        assert not ok
        assert any("[jit]" in line and "MISSING" in line for line in lines)

    @pytest.mark.parametrize("jit,ok", [(0.01, True), (0.0125, True),
                                        (0.015, False)])
    def test_jit_over_vm_gate(self, jit, ok):
        payload = report(dict(BASE, hot_loop_jit_s=jit))
        got, lines = bench.check_ratios(payload, min_jit_over_vm=1.5)
        assert got is ok
        assert len(lines) == 1 and "jit over vm" in lines[0]

    def test_jit_over_vm_missing_bench_fails(self):
        fresh = {k: v for k, v in BASE.items() if k != "hot_loop_jit_s"}
        ok, lines = bench.check_ratios(report(fresh), min_jit_over_vm=1.5)
        assert not ok
        assert "MISSING" in lines[0]

    def test_both_gates_report_together(self):
        payload = report(dict(BASE, hot_loop_jit_s=0.02),
                         transient={"vm": 2.0, "jit": 2.0})
        ok, lines = bench.check_ratios(payload, min_transient_speedup=1.3,
                                       min_jit_over_vm=1.5)
        assert not ok
        assert len(lines) == 3
