"""Tracing is observation-only: attaching a tracer never changes a run.

Every episode runner threads a tracer through the runtime, the platform
simulator, and the meters.  These properties re-run the same episode
with the shared ``NULL_TRACER`` (the default) and with a live
:class:`~repro.obs.tracer.Tracer` and require bit-identical results —
energy, duration, control flow, and QoS decisions.  Any divergence
would mean instrumentation leaked into the semantics (e.g. by
advancing the simulation clock or consuming platform randomness).
"""

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EnergyException, EntRuntimeError
from repro.eval.runner import (run_e1_episode, run_e2_episode,
                               run_e3_episode)
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.typechecker import check_program
from repro.obs.tracer import Tracer
from repro.workloads import E3_BENCHMARKS, get_workload
from repro.workloads.base import ES, FT, MG

from test_profile_transparency import LOOP_PROGRAMS  # type: ignore

_EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples"
     / "ent").glob("*.ent"))

_MODES = [ES, MG, FT]
_E1_E2_BENCHMARKS = ["jspider", "sunflow", "crypto"]

_seed = st.integers(min_value=0, max_value=7)
_mode = st.sampled_from(_MODES)
_bench = st.sampled_from(_E1_E2_BENCHMARKS)


def _episode_key(result):
    return (result.benchmark, result.system, result.boot_mode,
            result.workload_mode, result.qos_mode, result.silent,
            result.energy_j, result.duration_s, result.exception_raised)


class TestTracingTransparency:
    @given(_bench, _mode, _mode, st.booleans(), _seed)
    @settings(max_examples=25, deadline=None)
    def test_e1_unchanged_by_tracer(self, bench, boot, workload_mode,
                                    silent, seed):
        workload = get_workload(bench)
        plain = run_e1_episode(workload, "A", boot, workload_mode,
                               silent=silent, seed=seed)
        traced = run_e1_episode(workload, "A", boot, workload_mode,
                                silent=silent, seed=seed, tracer=Tracer())
        assert _episode_key(plain) == _episode_key(traced)

    @given(_bench, _mode, _seed)
    @settings(max_examples=15, deadline=None)
    def test_e2_unchanged_by_tracer(self, bench, boot, seed):
        workload = get_workload(bench)
        plain = run_e2_episode(workload, "A", boot, seed=seed)
        traced = run_e2_episode(workload, "A", boot, seed=seed,
                                tracer=Tracer())
        assert _episode_key(plain) == _episode_key(traced)

    @given(st.sampled_from(E3_BENCHMARKS),
           st.sampled_from(["ent", "java"]), _seed)
    @settings(max_examples=10, deadline=None)
    def test_e3_unchanged_by_tracer(self, bench, variant, seed):
        workload = get_workload(bench)
        plain = run_e3_episode(workload, variant=variant, seed=seed,
                               units=4)
        traced = run_e3_episode(workload, variant=variant, seed=seed,
                                units=4, tracer=Tracer())
        assert plain.energy_j == traced.energy_j
        assert plain.duration_s == traced.duration_s
        assert plain.sleeps == traced.sleeps
        assert plain.trace == traced.trace

    def test_e1_trace_records_the_decision(self):
        """The trace of a violating run shows the exception path."""
        tracer = Tracer()
        result = run_e1_episode(get_workload("jspider"), "A", ES, FT,
                                seed=0, tracer=tracer)
        assert result.exception_raised
        kinds = {event.kind for event in tracer.events()}
        assert "energy_exception" in kinds
        assert "snapshot" in kinds
        assert "meter_sample" in kinds


def _traced_run(source, engine, checks):
    """One traced run: ``(events as dicts, output, JITVM or None)``."""
    tracer = Tracer()
    interp = Interpreter(check_program(source), tracer=tracer,
                         options=InterpOptions(engine=engine,
                                               checks=checks))
    try:
        interp.run()
    except (EnergyException, EntRuntimeError):
        pass
    events = [(event.kind, dataclasses.asdict(event))
              for event in tracer.events()]
    return events, interp.output, (interp._vm if engine == "jit"
                                   else None)


_TRACED = ([(path.stem, path.read_text()) for path in _EXAMPLES]
           + sorted(LOOP_PROGRAMS.items()))


class TestJitUnderTracer:
    """The JIT tier stays armed under a tracer, and compiled code emits
    exactly the events the VM emits."""

    @pytest.mark.parametrize("checks", ["full", "transient"])
    @pytest.mark.parametrize("name,source", _TRACED,
                             ids=[name for name, _ in _TRACED])
    def test_traced_jit_records_the_vm_events(self, name, source,
                                              checks):
        vm_events, vm_out, _ = _traced_run(source, "vm", checks)
        jit_events, jit_out, jit = _traced_run(source, "jit", checks)
        assert jit_events == vm_events
        assert jit_out == vm_out
        if name in LOOP_PROGRAMS or name == "crawler":
            assert jit.jit_compiles > 0
