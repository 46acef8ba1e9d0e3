"""Cache-transparency tests for the hot-path caches.

The VM's and the JIT's call-site inline caches
(``InterpOptions.inline_caches``) must be invisible to observable
behaviour: outputs, every ``RunStats`` counter, and raised
``EnergyException``s are bit-identical with caches on and off, on every
engine.  Constraint entailment keeps no memo; it must agree with a
brute-force closure.  The embedded runtime's dfall checks keep no state
between runs either.  See docs/PERFORMANCE.md.
"""

import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintSet
from repro.core.errors import EnergyException, FuelExhausted
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice
from repro.lang.engines import ENGINES
from repro.lang.interp import Interpreter, InterpOptions, NullPlatform
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
# Constraint entailment against a naive reference


_atoms = st.sampled_from(["low", "mid", "high", "X", "Y", "Z"])
_CHAIN = [BOTTOM, Mode("low"), Mode("mid"), Mode("high"), TOP]


def _naive_entails(constraints, lhs, rhs):
    """``K ∪ D`` derives ``lhs <= rhs``, by brute force: close the
    explicit constraints, the declared chain ``D`` and ``⊥ <= x <= ⊤``
    for every variable ``x`` reflexively and transitively, then look
    for ``lhs <= rhs``, ``lhs <= ⊥`` or ``⊤ <= rhs``."""
    variables = {a for pair in constraints for a in pair
                 if isinstance(a, str)} | {
                     a for a in (lhs, rhs) if isinstance(a, str)}
    atoms = set(_CHAIN) | variables
    closure = set(constraints) | set(zip(_CHAIN, _CHAIN[1:]))
    closure |= {(BOTTOM, x) for x in variables}
    closure |= {(x, TOP) for x in variables}
    closure |= {(a, a) for a in atoms}
    grown = True
    while grown:
        derived = {(a, d) for a, b in closure for c, d in closure
                   if b == c}
        grown = not derived <= closure
        closure |= derived
    return ((lhs, rhs) in closure or (lhs, BOTTOM) in closure
            or (TOP, rhs) in closure)


def _agrees_with_naive(pairs, query):
    lattice = ModeLattice.linear(["low", "mid", "high"])
    modes = {mode.name: mode for mode in _CHAIN}

    def atom(name):
        return modes.get(name, name)

    constraints = [(atom(a), atom(b)) for a, b in pairs]
    q = (atom(query[0]), atom(query[1]))
    assert (ConstraintSet(lattice, constraints).entails_one(*q)
            == _naive_entails(constraints, *q))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_atoms, _atoms), max_size=6),
       st.tuples(_atoms, _atoms))
def test_entailment_identical_without_memo(pairs, query):
    """``entails_one`` answers as the brute-force closure does."""
    _agrees_with_naive(pairs, query)


_extreme_atoms = st.sampled_from(["low", "mid", "high", "X", "Y", "Z",
                                  BOTTOM.name, TOP.name])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_extreme_atoms, _extreme_atoms), max_size=6),
       st.tuples(_extreme_atoms, _extreme_atoms))
# An atom squeezed below ⊥ is below a variable K never mentions.
@example(pairs=[("low", BOTTOM.name)], query=("low", "X"))
def test_entailment_through_bottom_and_top_matches_naive(pairs, query):
    """With ``⊥`` and ``⊤`` in the constraints, entailment answers as
    the closure does."""
    _agrees_with_naive(pairs, query)


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
