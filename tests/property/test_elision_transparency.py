"""Elision-transparency tests for the repro.analysis planner.

Check elision is a pure optimization: a planned program run with
``elide_checks`` on must be bit-identical — outputs, every stats
counter (with executed+elided folded together), and raised
``EnergyException``s — to the same program with elision off, under
every execution engine.  The planner's soundness argument lives in
docs/ANALYSIS.md; these tests are its executable counterpart.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import plan_elisions
from repro.core.errors import EnergyException, FuelExhausted
from repro.lang.engines import ENGINES
from repro.lang.interp import Interpreter, InterpOptions, NullPlatform
from repro.lang.typechecker import check_program

# Reuse the soundness generator: its programs cover snapshots, bounds,
# messaging, mode cases, loops and exception handlers.
from test_soundness import programs  # type: ignore

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "ent").glob("*.ent"))

#: Workload kernels from the benchmark suite (inlined: benchmarks/ is
#: not importable from tests): a message-heavy hot loop on a
#: concrete-mode receiver, and a snapshot-heavy kernel.
MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"

HOT_LOOP_KERNEL = MODES + """
class Acc@mode<full_throttle> {
    int total;
    int bump(int k) { total = total + k; return total; }
}
class Main {
    void main() {
        Acc a = new Acc();
        int i = 0;
        while (i < 500) { a.bump(i % 7); i = i + 1; }
        Sys.print(a.total);
    }
}
"""

SNAPSHOT_KERNEL = MODES + """
class D@mode<?X> {
    int n;
    attributor {
        if (n > 3) { return full_throttle; }
        return managed;
    }
    D(int n) { this.n = n; }
    int work(int k) { return n + k; }
}
class Main {
    void main() {
        int total = 0;
        int i = 0;
        while (i < 50) {
            D d = snapshot (new D@mode<?>(i % 6));
            total = total + d.work(i);
            i = i + 1;
        }
        Sys.print(total);
    }
}
"""

KERNELS = {"hot_loop": HOT_LOOP_KERNEL, "snapshot": SNAPSHOT_KERNEL}


def run_config(source, *, engine, elide, battery=0.6):
    """Run a planned program with elision on or off.

    The elision plan is applied in both configurations — only the
    ``elide_checks`` option differs, isolating the runtime skip.
    """

    class _Battery(NullPlatform):
        def battery_fraction(self):
            return battery

    checked = check_program(source)
    plan_elisions(checked)
    interp = Interpreter(
        checked, platform=_Battery(),
        options=InterpOptions(engine=engine, fuel=500_000,
                              elide_checks=elide))
    try:
        interp.run()
        outcome = "ok"
    except EnergyException as exc:
        outcome = f"energy: {exc}"
    except FuelExhausted:
        outcome = "fuel"
    return outcome, tuple(interp.output), interp.stats.as_dict()


def fold_elided(stats):
    """Stats with executed and elided checks folded together — the
    only difference elision is allowed to make."""
    out = dict(stats)
    out["dfall_checks"] += out.pop("dfall_elided")
    out["bound_checks"] += out.pop("bound_checks_elided")
    return out


def assert_transparent(source, engine):
    on = run_config(source, engine=engine, elide=True)
    off = run_config(source, engine=engine, elide=False)
    # Outcome (including EnergyException messages) and output match.
    assert on[0] == off[0]
    assert on[1] == off[1]
    # With elision off, nothing may be skipped.
    assert off[2]["dfall_elided"] == 0
    assert off[2]["bound_checks_elided"] == 0
    # Every other counter is untouched; elision only moves checks from
    # the executed column to the elided column.
    assert fold_elided(on[2]) == fold_elided(off[2])


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
@pytest.mark.parametrize("engine", ENGINES)
def test_examples_identical_with_and_without_elision(path, engine):
    assert_transparent(path.read_text(), engine)


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=str)
@pytest.mark.parametrize("engine", ENGINES)
def test_kernels_identical_with_and_without_elision(kernel, engine):
    assert_transparent(KERNELS[kernel], engine)


def test_kernels_actually_elide():
    # Guard against the suite passing vacuously: the kernels must have
    # checks the planner provably removes.
    for kernel in KERNELS.values():
        on = run_config(kernel, engine="walk", elide=True)
        assert on[2]["dfall_elided"] + on[2]["bound_checks_elided"] > 0


@settings(max_examples=30, deadline=None)
@given(programs(), st.sampled_from(ENGINES))
def test_random_programs_identical_with_and_without_elision(
        source, engine):
    assert_transparent(source, engine)


@settings(max_examples=20, deadline=None)
@given(programs())
def test_analyzer_never_crashes_on_generated_programs(source):
    from repro.analysis import analyze_program

    report = analyze_program(check_program(source))
    for site in report.sites:
        assert site.status in ("static", "elided", "residual")
