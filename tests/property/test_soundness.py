"""Property-based type-soundness tests (paper Theorem 1, Corollary 1).

A generator produces random ENT programs from well-typed-by-construction
building blocks: dynamic objects with data-dependent attributors,
bounded and unbounded snapshots (with and without handlers), messaging,
mode-case elimination (explicit, and implicit wherever the typechecker
places it: call results, reassigned locals and fields, operands and
return values), and loops.  Every generated program must
typecheck, and every run must either produce a value, exhaust its fuel
(divergence), or stop at an EnergyException from a bad check — never a
stuck state (``StuckError``).  An ``on_message`` hook asserts the
dynamic waterfall invariant on every message (Corollary 1).  Both
properties are checked on every engine under both check depths.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import (EnergyException, EntError, FuelExhausted,
                               StuckError)
from repro.lang.engines import ENGINES
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.typechecker import check_program

HEADER = """
modes { energy_saver <= managed; managed <= full_throttle; }

class D@mode<?X> {
    int n;
    attributor {
        if (n > 20) { return full_throttle; }
        if (n > 10) { return managed; }
        return energy_saver;
    }
    D(int n) { this.n = n; }
    mcase<int> level = mcase{
        energy_saver: 1; managed: 2; full_throttle: 3;
    };
    int work(int k) { return n + k; }
    int grow() { n = n + 7; return n; }
}

class Tier@mode<X> {
    mcase<int> level = mcase{
        energy_saver: 4; managed: 5; full_throttle: 6;
    };
    mcase<int> get() { return level; }
    int viaSelect(int k) { return mselect(get(), energy_saver) + k; }
    int viaInt(int k) { int v = get(); return v * k; }
    int local(int k) {
        mcase<int> m = level;
        m = mcase{ energy_saver: k; managed: k + 1; full_throttle: k + 2; };
        return mselect(m, managed);
    }
    int field(int k) {
        level = mcase{ energy_saver: k; managed: k; full_throttle: 9; };
        return mselect(level, energy_saver);
    }
    int operand(int k) { mcase<int> m = get(); return m + k; }
    int ret(int k) { mcase<int> m = level; return m; }
}
"""

MODE_NAMES = ["energy_saver", "managed", "full_throttle"]

#: ``Tier``'s methods: each takes one int.  Main runs at ⊤, which no
#: mode case has a branch for, so implicit eliminations run inside the
#: concrete-mode ``Tier``.
TIER_METHODS = ["viaSelect", "viaInt", "local", "field", "operand", "ret"]

_bounds = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["_"] + MODE_NAMES),
              st.sampled_from(["_"] + MODE_NAMES)))


@st.composite
def programs(draw):
    """Emit a random Main over the fixed class library."""
    lines = []
    dyn_vars = []
    snap_vars = []
    tier_vars = []
    var_count = 0

    def fresh():
        nonlocal var_count
        var_count += 1
        return f"v{var_count}"

    n_ops = draw(st.integers(min_value=1, max_value=12))
    lines.append("int acc = 0;")
    for _ in range(n_ops):
        choice = draw(st.integers(min_value=0, max_value=6))
        if choice == 0 or not dyn_vars:
            name = fresh()
            size = draw(st.integers(min_value=0, max_value=30))
            lines.append(f"D {name} = new D({size});")
            dyn_vars.append(name)
        elif choice == 1:
            src = draw(st.sampled_from(dyn_vars))
            name = fresh()
            bounds = draw(_bounds)
            snap = f"snapshot {src}"
            if bounds is not None:
                snap += f" [{bounds[0]}, {bounds[1]}]"
            guarded = draw(st.booleans())
            if guarded:
                # The snapshot result is scoped inside the handler-
                # protected block (non-equivocation: it cannot flow to
                # a dynamic-typed variable outside).
                lines.append(f"try {{ D {name} = {snap}; "
                             f"acc = acc + {name}.work(1); }} "
                             f"catch (EnergyException e) "
                             f"{{ acc = acc + 1; }}")
            else:
                lines.append(f"D {name} = {snap};")
                snap_vars.append(name)
        elif choice == 2 and snap_vars:
            target = draw(st.sampled_from(snap_vars))
            k = draw(st.integers(min_value=0, max_value=5))
            lines.append(f"acc = acc + {target}.work({k});")
        elif choice == 3 and snap_vars:
            target = draw(st.sampled_from(snap_vars))
            lines.append(f"acc = acc + {target}.level;")
        elif choice == 4 and dyn_vars:
            target = draw(st.sampled_from(dyn_vars))
            mode = draw(st.sampled_from(MODE_NAMES))
            lines.append(f"acc = acc + mselect({target}.level, {mode});")
        elif choice == 6:
            if not tier_vars or draw(st.booleans()):
                name = fresh()
                mode = draw(st.sampled_from(MODE_NAMES))
                lines.append(f"Tier@mode<{mode}> {name} = "
                             f"new Tier@mode<{mode}>();")
                tier_vars.append(name)
            else:
                target = draw(st.sampled_from(tier_vars))
                k = draw(st.integers(min_value=0, max_value=5))
                method = draw(st.sampled_from(TIER_METHODS + ["get"]))
                if method == "get":
                    # A mode case handed back raw, selected in Main.
                    mode = draw(st.sampled_from(MODE_NAMES))
                    lines.append(f"acc = acc + mselect({target}.get(), "
                                 f"{mode});")
                else:
                    lines.append(f"acc = acc + {target}.{method}({k});")
        else:
            reps = draw(st.integers(min_value=0, max_value=4))
            lines.append(f"int i{var_count} = 0;")
            lines.append(f"while (i{var_count} < {reps}) "
                         f"{{ acc = acc + 1; "
                         f"i{var_count} = i{var_count} + 1; }}")
            var_count += 1
    body = "\n        ".join(lines)
    return (HEADER
            + "class Main { void main() { "
            + body + " Sys.print(acc); } }")


#: Inheritance counterexamples the generator does not draw.  A subclass
#: passes an explicit argument to a superclass variable of the same name
#: (its own ``X`` must stay ``full_throttle``), and a snapshot of a
#: subclass must reach the superclass variable its mode passes through.
SUPER_ARGUMENT = """
modes { energy_saver <= managed; managed <= full_throttle; }
class Helper@mode<managed> { int h() { return 5; } }
class Base@mode<X> { int b() { return 1; } }
class Pinned@mode<managed <= X <= full_throttle>
        extends Base@mode<energy_saver> {
    int tell() { Helper hh = new Helper(); return hh.h(); }
}
class Main {
    void main() {
        Pinned p = new Pinned@mode<full_throttle>();
        Sys.print(p.tell());
    }
}
"""

INHERITED_SNAPSHOT = """
modes { energy_saver <= managed; managed <= full_throttle; }
class Base@mode<?X> {
    int n;
    mcase<int> tier = mcase{ energy_saver: 1; managed: 2;
                             full_throttle: 3; };
    attributor {
        if (n > 10) { return full_throttle; }
        return energy_saver;
    }
    int lvl() { return mselect(tier, X); }
}
class Derived@mode<?Y> extends Base { Derived(int n) { this.n = n; } }
class Main {
    void main() {
        Derived d = snapshot (new Derived@mode<?>(50));
        Sys.print(d.lvl());
    }
}
"""

#: Every engine under both check depths.
CONFIGS = [(engine, checks) for engine in ENGINES
           for checks in ("full", "transient")]


def _interpreter(source, engine, checks):
    checked = check_program(source)  # must typecheck
    interp = Interpreter(checked, options=InterpOptions(
        fuel=200_000, engine=engine, checks=checks))
    if engine == "jit":
        # Thresholds of 1: every body runs as emitted Python.
        interp._vm._hot_call = 1
        interp._vm._hot_loop = 1
    return interp


@settings(max_examples=60, deadline=None)
@given(programs())
@example(SUPER_ARGUMENT)
@example(INHERITED_SNAPSHOT)
def test_soundness_never_stuck(source):
    """Theorem 1: well-typed programs reduce to a value, diverge, or
    stop at a bad check — they never get stuck."""
    for engine, checks in CONFIGS:
        interp = _interpreter(source, engine, checks)
        try:
            interp.run()
        except (EnergyException, FuelExhausted):
            pass  # bad check or bounded divergence: allowed by soundness
        except StuckError as exc:  # pragma: no cover - a real bug
            raise AssertionError(f"stuck state reached on {engine} "
                                 f"({checks} checks): {exc}\n{source}")


@settings(max_examples=40, deadline=None)
@given(programs())
@example(SUPER_ARGUMENT)
@example(INHERITED_SNAPSHOT)
def test_waterfall_invariant_preservation(source):
    """Corollary 1: dfall holds at every message of a well-typed run."""
    for engine, checks in CONFIGS:
        interp = _interpreter(source, engine, checks)
        violations = []
        interp.on_message = (
            lambda guard, sender, holds:
            violations.append((guard, sender)) if not holds else None)
        try:
            interp.run()
        except (EnergyException, FuelExhausted):
            pass
        assert not violations, (engine, checks, violations, source)


@settings(max_examples=30, deadline=None)
@given(programs())
def test_silent_mode_never_raises(source):
    """The E1 silent build ignores every EnergyException."""
    checked = check_program(source)
    interp = Interpreter(checked,
                         options=InterpOptions(silent=True, fuel=200_000))
    try:
        interp.run()
    except FuelExhausted:
        pass


@settings(max_examples=30, deadline=None)
@given(programs())
def test_lazy_and_eager_copy_agree(source):
    """The lazy-copy optimization (section 5) is unobservable: lazy and
    eager snapshots produce identical program output."""
    def run(lazy):
        checked = check_program(source)
        interp = Interpreter(
            checked, options=InterpOptions(lazy_copy=lazy, fuel=200_000))
        try:
            interp.run()
        except (EnergyException, FuelExhausted) as exc:
            return ("exception", type(exc).__name__, interp.output)
        return ("ok", None, interp.output)

    assert run(True) == run(False)
