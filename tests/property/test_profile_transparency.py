"""Profiling must be observation-transparent on every engine.

The profiler reads timestamps and counts events; it must never change
what a program computes.  This suite proves it the same way the
tracing-transparency suite does: run every example, every workload
kernel, and random generated programs with profiling on and off, on
all three engines, and require bit-identical observables (outcome,
output, stats — including ``steps``, since instrumentation must not
perturb the interpreter's own accounting).

It also pins the tentpole's check-level guarantees:

* **Elided-site silence** — no check *fires* at a site the planner
  elided: the profile's per-site ``executed`` count is 0 wherever the
  analysis said ``elided`` (the property behind
  ``static_vs_observed``'s clean verdict).
* **Residual totals** — summed per-site executed/elided counts equal
  the interpreter's own stats counters, on every engine, so the
  profile is exact, not sampled.
* **Cross-engine check invariance** — the per-site check counts are
  identical across walk/vm/jit.  The JIT tier stays off under a
  profiler, so a profiled ``jit`` run is exactly a profiled ``vm``
  run; the unprofiled ``jit`` run it is compared against is not.
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro.analysis import analyze_program, static_vs_observed
from repro.core.errors import (EnergyException, EntRuntimeError,
                               FuelExhausted)
from repro.lang.interp import Interpreter, InterpOptions, NullPlatform
from repro.lang.typechecker import check_program
from repro.obs.prof import Profiler

from test_soundness import programs  # type: ignore
from test_vm_agreement import KERNEL_PROGRAMS  # type: ignore

_ROOT = pathlib.Path(__file__).resolve().parents[2]

FIXED_PROGRAMS = sorted(
    str(p.relative_to(_ROOT))
    for p in (_ROOT / "examples" / "ent").glob("*.ent"))

ENGINES = ("walk", "vm", "jit")


def run_engine(source: str, engine: str, battery: float = 0.6,
               elide: bool = True, profile: bool = False):
    """Returns ``(observables, profile, analysis_report, stats)``.

    ``observables`` includes the *full* stats dict — ``steps`` too:
    profiling must not change how many steps the engine itself counts.
    """

    class _Battery(NullPlatform):
        def battery_fraction(self):
            return battery

    checked = check_program(source)
    report = None
    if elide:
        report = analyze_program(checked, annotate=True, file="<test>")
    profiler = Profiler(engine) if profile else None
    interp = Interpreter(
        checked, platform=_Battery(),
        options=InterpOptions(engine=engine, fuel=500_000),
        profiler=profiler)
    try:
        interp.run()
        outcome = ("ok", None)
    except EnergyException as exc:
        outcome = ("energy", str(exc))
    except FuelExhausted:
        outcome = ("fuel", None)
    except EntRuntimeError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    stats = interp.stats.as_dict()
    observables = (outcome, tuple(interp.output), tuple(sorted(stats.items())))
    return (observables,
            profiler.profile if profiler is not None else None,
            report, stats)


def check_counts(profile):
    return {sid: (entry["executed"], entry["elided"])
            for sid, entry in profile.check_sites.items()}


@pytest.mark.parametrize("path", FIXED_PROGRAMS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("elide", [False, True], ids=["checks", "elide"])
def test_examples_profiling_transparent(path, engine, elide):
    source = (_ROOT / path).read_text()
    plain, _, _, _ = run_engine(source, engine, elide=elide)
    profiled, profile, _, _ = run_engine(source, engine, elide=elide,
                                         profile=True)
    assert plain == profiled
    assert profile.total_time >= 0.0


@pytest.mark.parametrize("index", range(len(KERNEL_PROGRAMS)),
                         ids=["accumulate", "pagerank", "crypto"])
@pytest.mark.parametrize("engine", ENGINES)
def test_workload_kernels_profiling_transparent(index, engine):
    source = KERNEL_PROGRAMS[index]
    plain, _, _, _ = run_engine(source, engine)
    profiled, profile, _, _ = run_engine(source, engine, profile=True)
    assert plain == profiled
    assert profile.registry.histograms, "kernel must attribute time"


@pytest.mark.parametrize("path", FIXED_PROGRAMS)
@pytest.mark.parametrize("engine", ENGINES)
def test_no_check_fires_at_elided_sites(path, engine):
    """The static-vs-observed oracle, as a property: every site the
    planner marked (fully) elided shows zero executed checks."""
    source = (_ROOT / path).read_text()
    _, profile, report, _ = run_engine(source, engine, profile=True)
    diff = static_vs_observed(report, profile)
    assert diff.clean, diff.render()
    predicted = {}
    for site in report.sites:
        predicted.setdefault(site.site_id, []).append(site.status)
    for sid, entry in profile.check_sites.items():
        statuses = predicted.get(sid)
        if statuses and all(status == "elided" for status in statuses):
            assert entry["executed"] == 0, (sid, entry)


@pytest.mark.parametrize("path", FIXED_PROGRAMS)
@pytest.mark.parametrize("engine", ENGINES)
def test_profile_check_totals_match_stats(path, engine):
    """The profile is exact: summed per-site counters equal the
    interpreter's own stats counters."""
    source = (_ROOT / path).read_text()
    _, profile, _, stats = run_engine(source, engine, profile=True)
    totals = profile.check_totals()
    dfall = totals.get("dfall", {"executed": 0, "elided": 0})
    bound = totals.get("snapshot_bound", {"executed": 0, "elided": 0})
    assert dfall["executed"] == stats["dfall_checks"]
    assert dfall["elided"] == stats["dfall_elided"]
    assert bound["executed"] == stats["bound_checks"]
    assert bound["elided"] == stats["bound_checks_elided"]


@pytest.mark.parametrize("path", FIXED_PROGRAMS)
def test_check_sites_invariant_across_engines(path):
    source = (_ROOT / path).read_text()
    profiles = [run_engine(source, engine, profile=True)[1]
                for engine in ENGINES]
    counts = [check_counts(profile) for profile in profiles]
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("index", [0, 1], ids=["accumulate", "pagerank"])
def test_kernel_check_sites_invariant_across_engines(index):
    source = KERNEL_PROGRAMS[index]
    profiles = [run_engine(source, engine, profile=True)[1]
                for engine in ENGINES]
    counts = [check_counts(profile) for profile in profiles]
    assert counts[0] == counts[1] == counts[2]


@settings(max_examples=20, deadline=None)
@given(programs())
def test_random_programs_profiling_transparent(source):
    for engine in ("walk", "vm"):
        plain, _, _, _ = run_engine(source, engine, elide=False)
        profiled, _, _, _ = run_engine(source, engine, elide=False,
                                       profile=True)
        assert plain == profiled


@settings(max_examples=15, deadline=None)
@given(programs())
def test_random_programs_static_vs_observed_clean(source):
    for engine in ("walk", "vm"):
        _, profile, report, _ = run_engine(source, engine, profile=True)
        diff = static_vs_observed(report, profile)
        assert diff.clean, diff.render()
