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
  identical across walk/vm/jit.
* **The compiled tier profiles as the VM** — the JIT stays armed under
  the profiler and compiles the VM's ``PROFILE`` instructions to
  inline bumps, so a profiled ``jit`` run matches the profiled ``vm``
  run in label counts, call sites, check sites, ``mode_time`` keys and
  stack keys; only the ``engine.jit_compile`` label (one bump per
  compile attempt) is its own.  Loops that cross the tiering
  threshold must actually compile.
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


def make_interpreter(source: str, engine: str, battery: float = 0.6,
                     elide: bool = True, profile: bool = False,
                     jit_hot: bool = False):
    """Returns ``(interpreter, profiler or None, analysis report)``;
    ``jit_hot`` drops the JIT's thresholds to 1, so every body and
    loop runs compiled."""

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
    if jit_hot:
        interp._vm._hot_call = interp._vm._hot_loop = 1
    return interp, profiler, report


def run_engine(source: str, engine: str, battery: float = 0.6,
               elide: bool = True, profile: bool = False):
    """Returns ``(observables, profile, analysis_report, stats)``.

    ``observables`` includes the *full* stats dict — ``steps`` too:
    profiling must not change how many steps the engine itself counts.
    """
    interp, profiler, report = make_interpreter(
        source, engine, battery=battery, elide=elide, profile=profile)
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
    for engine in ENGINES:
        plain, _, _, _ = run_engine(source, engine, elide=False)
        profiled, _, _, _ = run_engine(source, engine, elide=False,
                                       profile=True)
        assert plain == profiled


@settings(max_examples=15, deadline=None)
@given(programs())
def test_random_programs_static_vs_observed_clean(source):
    for engine in ENGINES:
        _, profile, report, _ = run_engine(source, engine, profile=True)
        diff = static_vs_observed(report, profile)
        assert diff.clean, diff.render()


# ---------------------------------------------------------------------------
# The compiled tier under the profiler

#: Loops shaped like entbench's ``ent_exec`` programs, long enough to
#: cross the JIT's loop threshold: a static-mode send loop, a
#: re-snapshot loop whose bound and dfall checks stay residual, a send
#: site that turns polymorphic halfway (deopts, invalidation), and a
#: loop that throws and catches.
_HEADER = "modes { energy_saver <= managed; managed <= full_throttle; }\n"
LOOP_PROGRAMS = {
    "send": _HEADER + """
class Acc@mode<full_throttle> {
    int total;
    int bump(int k) { total = (total + k * 7) % 1009; return total; }
}
class Main {
    void main() {
        Acc a = new Acc();
        int i = 0;
        while (i < 300) { a.bump(i % 5); i = i + 1; }
        Sys.print(a.total);
    }
}
""",
    "residual": _HEADER + """
class R@mode<?X> {
    int load;
    attributor {
        if (load > 40) { return full_throttle; }
        if (load > 10) { return managed; }
        return energy_saver;
    }
    R(int load) { this.load = load; }
    int get() { return load; }
}
class Main {
    void main() {
        R@mode<?> r = new R@mode<?>(25);
        int total = 0;
        int i = 0;
        while (i < 200) {
            R s = snapshot r [managed, _];
            total = (total + s.get() * 3) % 1009;
            i = i + 1;
        }
        Sys.print(total);
    }
}
""",
    "poly": _HEADER + """
class Shape@mode<full_throttle> { int area(int k) { return k; } }
class Sq@mode<full_throttle> extends Shape {
    int area(int k) { return k * 3 + 1; }
}
class Ci@mode<full_throttle> extends Shape {
    int area(int k) { return k * 5 + 2; }
}
class Tr@mode<full_throttle> extends Shape {
    int area(int k) { return k + 4; }
}
class Main {
    void main() {
        Shape q = new Sq();
        Shape c = new Ci();
        Shape t = new Tr();
        int total = 0;
        int i = 0;
        while (i < 400) {
            Shape s = q;
            if (i >= 200) {
                int r = i % 3;
                if (r == 1) { s = c; }
                if (r == 2) { s = t; }
            }
            total = (total + s.area(i)) % 1009;
            i = i + 1;
        }
        Sys.print(total);
    }
}
""",
    "throw": _HEADER + """
class Main {
    void main() {
        int caught = 0;
        int i = 0;
        while (i < 100) {
            try {
                if (i % 3 == 0) { throw "tick"; }
                caught = caught + 2;
            } catch (EnergyException e) { caught = caught + 1; }
            i = i + 1;
        }
        Sys.print(caught);
    }
}
""",
}


def profile_shape(profile):
    """Everything a profile records apart from its times, minus the
    JIT's own ``engine.jit_compile`` label."""
    labels = {name: h.count
              for name, h in profile.registry.histograms.items()
              if name != "engine.jit_compile"}
    return (labels, profile.call_sites, profile.check_sites,
            {key for key in profile.mode_time
             if key[0] != "engine.jit_compile"},
            set(profile.stack_time))


def profile_jit_against_vm(source: str, jit_hot: bool = False):
    """Profile ``source`` on vm and jit; the profiles must agree in
    everything but time.  Returns the jit run's ``JITVM``."""
    shapes = []
    for engine in ("vm", "jit"):
        interp, profiler, _ = make_interpreter(source, engine,
                                               profile=True,
                                               jit_hot=jit_hot)
        try:
            interp.run()
        except (EnergyException, EntRuntimeError):
            pass
        shapes.append(profile_shape(profiler.profile))
    assert shapes[0] == shapes[1]
    jit = interp._vm
    compiles = profiler.profile.registry.histograms.get(
        "engine.jit_compile")
    # One bump per compile attempt, bailouts included.
    assert (compiles.count if compiles else 0) == (jit.jit_compiles
                                                   + jit.jit_bailouts)
    return jit


@pytest.mark.parametrize("jit_hot", [False, True],
                         ids=["tiered", "all-compiled"])
@pytest.mark.parametrize("path", FIXED_PROGRAMS)
def test_examples_jit_profiles_as_vm(path, jit_hot):
    jit = profile_jit_against_vm((_ROOT / path).read_text(),
                                 jit_hot=jit_hot)
    if path.endswith("crawler.ent"):
        assert jit.jit_compiles > 0


#: Programs whose loops or sends cross the JIT's default thresholds.
HOT_PROGRAMS = dict(LOOP_PROGRAMS, **dict(zip(
    ("accumulate", "pagerank", "crypto"), KERNEL_PROGRAMS)))


@pytest.mark.parametrize("name", sorted(HOT_PROGRAMS))
def test_hot_programs_jit_profiles_as_vm(name):
    jit = profile_jit_against_vm(HOT_PROGRAMS[name])
    assert jit.jit_compiles > 0
    if name == "poly":
        assert jit.jit_deopts > 0


@settings(max_examples=15, deadline=None)
@given(programs())
def test_random_programs_jit_profiles_as_vm(source):
    profile_jit_against_vm(source, jit_hot=True)
