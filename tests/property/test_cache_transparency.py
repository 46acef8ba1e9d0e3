"""Cache-transparency tests for the hot-path caches.

Every cache added for performance — the engines' inline caches
(``InterpOptions.inline_caches``) and the constraint-set memo
(``ConstraintSet.MEMOIZE``) — must be invisible to observable
behaviour: outputs, every ``InterpStats`` counter, and raised
``EnergyException``s are bit-identical with caches on and off, on every
engine.  The embedded runtime's dfall checks keep no state between
runs either.  See docs/PERFORMANCE.md.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintSet
from repro.core.errors import EnergyException, FuelExhausted
from repro.core.modes import Mode, ModeLattice
from repro.lang.engines import ENGINES
from repro.lang.interp import (Interpreter, InterpOptions, NullPlatform,
                               run_source)
from repro.lang.typechecker import check_program
from repro.runtime import EntRuntime

# Reuse the soundness generator: its programs cover snapshots, bounds,
# messaging, mode cases, loops and exception handlers.
from test_soundness import programs  # type: ignore

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "ent").glob("*.ent"))


def run_config(source, *, engine, inline_caches, battery=0.6):
    class _Battery(NullPlatform):
        def battery_fraction(self):
            return battery

    checked = check_program(source)
    interp = Interpreter(
        checked, platform=_Battery(),
        options=InterpOptions(engine=engine, fuel=500_000,
                              inline_caches=inline_caches))
    try:
        interp.run()
        outcome = "ok"
    except EnergyException as exc:
        outcome = f"energy: {exc}"
    except FuelExhausted:
        outcome = "fuel"
    # The *full* stats dict: the caches may not shift a single counter,
    # including steps (tick placement is independent of cache hits).
    return outcome, tuple(interp.output), interp.stats.as_dict()


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
@pytest.mark.parametrize("engine", ENGINES)
def test_examples_identical_with_and_without_caches(path, engine):
    source = path.read_text()
    cached = run_config(source, engine=engine, inline_caches=True)
    uncached = run_config(source, engine=engine, inline_caches=False)
    assert cached == uncached


@settings(max_examples=30, deadline=None)
@given(programs(), st.sampled_from(ENGINES))
def test_random_programs_identical_with_and_without_caches(
        source, engine):
    cached = run_config(source, engine=engine, inline_caches=True)
    uncached = run_config(source, engine=engine, inline_caches=False)
    assert cached == uncached


# ---------------------------------------------------------------------------
# ConstraintSet.MEMOIZE


def _without_memo():
    class _Ctx:
        def __enter__(self):
            self._saved = ConstraintSet.MEMOIZE
            ConstraintSet.MEMOIZE = False

        def __exit__(self, *exc):
            ConstraintSet.MEMOIZE = self._saved

    return _Ctx()


_atoms = st.sampled_from(["low", "mid", "high", "X", "Y", "Z"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_atoms, _atoms), max_size=6),
       st.tuples(_atoms, _atoms))
def test_entailment_identical_without_memo(pairs, query):
    lattice = ModeLattice.linear(["low", "mid", "high"])

    def atom(name):
        return Mode(name) if name in ("low", "mid", "high") else name

    constraints = [(atom(a), atom(b)) for a, b in pairs]
    q = (atom(query[0]), atom(query[1]))
    memoized = ConstraintSet(lattice, constraints).entails_one(*q)
    with _without_memo():
        plain = ConstraintSet(lattice, constraints).entails_one(*q)
    assert memoized == plain


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_atoms, _atoms), max_size=6),
       st.sampled_from(["X", "Y", "Z"]))
def test_solve_range_identical_without_memo(pairs, var):
    lattice = ModeLattice.linear(["low", "mid", "high"])

    def atom(name):
        return Mode(name) if name in ("low", "mid", "high") else name

    constraints = [(atom(a), atom(b)) for a, b in pairs]
    memoized = ConstraintSet(lattice, constraints).solve_range(var)
    with _without_memo():
        plain = ConstraintSet(lattice, constraints).solve_range(var)
    assert memoized == plain


def test_typechecking_and_run_identical_without_memo():
    source = (ROOT / "examples" / "ent" / "coadapt.ent").read_text()
    with_memo = run_source(source)
    with _without_memo():
        without = run_source(source)
    assert with_memo.output == without.output
    assert with_memo.stats.as_dict() == without.stats.as_dict()


# ---------------------------------------------------------------------------
# Embedded runtime dfall checks


def _drive_runtime():
    """Messages across modes, including a waterfall violation."""
    rt = EntRuntime.standard()

    @rt.dynamic
    class Site:
        def __init__(self, n):
            self.n = n

        def attributor(self):
            return "full_throttle" if self.n > 10 else "energy_saver"

        def poke(self):
            return self.n

    verdicts = []
    for n in (5, 50, 5, 50, 5):
        site = rt.snapshot(Site(n))
        for ctx in ("energy_saver", "managed", "full_throttle"):
            with rt.booted(ctx):
                try:
                    site.poke()
                    verdicts.append((n, ctx, "ok"))
                except EnergyException:
                    verdicts.append((n, ctx, "energy"))
    return verdicts, rt.stats.as_dict()


def test_embedded_dfall_memo_transparent():
    # Two runs on fresh runtimes give identical verdicts and stats:
    # every dfall check reads the lattice's upward closure, so no state
    # carries over from one check to the next.
    first = _drive_runtime()
    second = _drive_runtime()
    assert first == second
