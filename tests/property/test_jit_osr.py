"""Loop-scoped on-stack replacement: a hot loop compiles alone.

The JIT counts heat per loop head.  When one loop crosses the OSR
threshold, only that loop's instructions ``[head, back edge]`` compile;
the VM enters the region mid-loop and the region hands control back at
the loop's exit with the registers it touched stored back.  Every test
here runs a program on the plain VM and on the JIT and requires the
same outcome, output and full ``InterpStats`` — ``steps`` included,
since both tiers charge fuel at the same points.  The targeted shapes
then check which units compiled, from the JIT's compile log.
"""

import pytest
from hypothesis import given, settings

from repro.core.errors import (EnergyException, EntRuntimeError,
                               FuelExhausted)
from repro.lang.bytecode import OP_FOREACH_ITER
from repro.lang.interp import Interpreter, InterpOptions, NullPlatform
from repro.lang.jit import (DEOPT_LIMIT, HOT_CALL_THRESHOLD,
                            HOT_LOOP_THRESHOLD)
from repro.lang.typechecker import check_program

from test_soundness import programs  # type: ignore

MODES = "modes { lo <= mid; mid <= hi; }\n"


def run(source, engine, hot_loop=None, hot_call=None, fuel=200_000):
    """Run ``source``; returns (outcome, output, stats, interp)."""
    interp = Interpreter(check_program(source), platform=NullPlatform(),
                         options=InterpOptions(engine=engine, fuel=fuel))
    if hot_loop is not None:
        interp._vm._hot_loop = hot_loop
    if hot_call is not None:
        interp._vm._hot_call = hot_call
    try:
        interp.run()
        outcome = ("ok",)
    except EnergyException as exc:
        outcome = ("energy", str(exc))
    except FuelExhausted as exc:
        outcome = ("fuel", str(exc))
    except EntRuntimeError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return outcome, tuple(interp.output), interp.stats.as_dict(), interp


def same_as_vm(source, **thresholds):
    """Run on vm and jit, assert identical observables (``steps``
    included); returns the JIT's ``JITVM``."""
    reference = run(source, "vm", fuel=thresholds.pop("fuel", 200_000))
    outcome, output, stats, interp = run(
        source, "jit", fuel=reference[3].options.fuel, **thresholds)
    assert (outcome, output, stats) == reference[:3]
    return interp._vm


def compiled(vm, prefix):
    """Compile-log entries ``(name, version)`` for units named
    ``prefix`` (the body) or ``prefix@head`` (its loops)."""
    return [(name, version) for name, version in vm.jit_compiled
            if name == prefix or name.startswith(prefix + "@")]


def head_of(name):
    return int(name.rsplit("@", 1)[1])


# ----------------------------------------------------------------------
# Generated programs under every threshold combination


@settings(max_examples=25, deadline=None)
@given(programs())
def test_generated_programs_match_vm_at_every_threshold(source):
    for hot_loop in (1, 2, 36):
        for hot_call in (1, 16):
            same_as_vm(source, hot_loop=hot_loop, hot_call=hot_call)


# ----------------------------------------------------------------------
# Targeted shapes (default thresholds)

def _short_loops_program():
    short = "\n".join(
        f"int i{k} = 0; while (i{k} < 5) {{ acc = acc + {k}; "
        f"i{k} = i{k} + 1; }}" for k in range(12))
    return MODES + f"""
class Main {{
    void main() {{
        int acc = 0;
        {short}
        int j = 0;
        while (j < 50) {{ acc = acc + j; j = j + 1; }}
        Sys.print(acc);
    }}
}}
"""


def test_many_short_loops_never_compile_the_body():
    """Twelve 5-trip loops cross the threshold together (72 back
    edges) but none alone: only the one 50-trip loop compiles, and
    Main never compiles whole."""
    vm = same_as_vm(_short_loops_program())
    log = compiled(vm, "Main.main")
    assert ("Main.main", 1) not in log
    assert len(log) == 1 and "@" in log[0][0]
    assert vm.jit_loop_compiles == vm.jit_compiles == 1


NESTED = MODES + """
class Main {
    void main() {
        int total = 0;
        int i = 0;
        while (i < 60) {
            int j = 0;
            while (j < 5) { total = total + i * j; j = j + 1; }
            i = i + 1;
        }
        Sys.print(total);
    }
}
"""


def test_nested_loops_compile_inner_then_outer():
    vm = same_as_vm(NESTED)
    log = compiled(vm, "Main.main")
    assert [version for _, version in log] == [1, 1]
    inner, outer = (head_of(name) for name, _ in log)
    assert inner > outer, "the inner loop must be hot first"
    assert vm.jit_loop_compiles == 2


EXITS = MODES + """
class Scan@mode<mid> {
    int firstOver(int limit, int n) {
        int i = 0;
        while (i < n) {
            if (i * i > limit) { return i; }
            i = i + 1;
        }
        return -1;
    }
    int skipOdd(int n) {
        int acc = 0;
        int i = 0;
        while (true) {
            i = i + 1;
            if (i > n) { break; }
            if (i % 2 == 1) { continue; }
            acc = acc + i;
        }
        return acc;
    }
}
class Main {
    void main() {
        Scan s = new Scan();
        Sys.print(s.firstOver(2500, 100));
        Sys.print(s.firstOver(100, 100));
        Sys.print(s.firstOver(100000, 60));
        Sys.print(s.skipOdd(80));
        Sys.print(s.skipOdd(10));
    }
}
"""


def test_break_continue_and_return_leave_a_region():
    vm = same_as_vm(EXITS)
    assert len(compiled(vm, "Scan.firstOver")) == 1
    assert len(compiled(vm, "Scan.skipOdd")) == 1
    assert vm.jit_loop_compiles == vm.jit_compiles == 2


FOREACH = MODES + """
class Main {
    void main() {
        List xs = new List();
        int i = 0;
        while (i < 20) { xs.add(i); i = i + 1; }
        int sum = 0;
        foreach (int x : xs) { sum = sum + x; }
        foreach (int x : xs) { foreach (int y : xs) { sum = sum + y; } }
        Sys.print(sum);
    }
}
"""


def test_foreach_loop_is_entered_through_osr():
    vm = same_as_vm(FOREACH)
    heads = [loop for loops in vm._loops.values()
             for loop in loops.values() if loop.jit is not None]
    assert heads, "a foreach loop should have compiled"
    assert all(loop.code.instrs[loop.head][0] == OP_FOREACH_ITER
               for loop in heads)


TRY_IN_LOOP = MODES + """
class Main {
    void main() {
        int acc = 0;
        int caught = 0;
        String last = "none";
        int i = 0;
        while (i < 80) {
            try {
                if (i % 9 == 4) { throw "tick " + i; }
                if (i == 70) { break; }
                acc = acc + i;
            } catch (EnergyException e) {
                caught = caught + 1;
                last = e;
            }
            i = i + 1;
        }
        Sys.print(acc + " " + caught + " " + i + " " + last);
    }
}
"""


def test_try_catch_and_break_out_of_try_inside_a_region():
    vm = same_as_vm(TRY_IN_LOOP)
    assert len(compiled(vm, "Main.main")) == 1
    assert vm.jit_loop_compiles == 1


ESCAPES = MODES + """
class Probe@mode<?X> {
    int n;
    attributor {
        if (n > 40) { return hi; }
        return lo;
    }
    Probe(int n) { this.n = n; }
}
class Worker {
    int run(int n) {
        int i = 0;
        while (i < n) {
            if (i == 45) { throw "stop at " + i; }
            i = i + 1;
        }
        return i;
    }
    int probe(int n) {
        int i = 0;
        while (i < n) {
            Probe p = snapshot (new Probe@mode<?>(i)) [_, mid];
            i = i + 1;
        }
        return i;
    }
}
class Main {
    void main() {
        Worker w = new Worker();
        try { Sys.print(w.run(100)); }
        catch (EnergyException e) { Sys.print("caught " + e); }
        Sys.print(w.run(20));
        try { Sys.print(w.probe(100)); }
        catch (EnergyException e) { Sys.print("caught " + e); }
        Sys.print(w.run(100));
    }
}
"""


def test_energy_exception_escapes_a_region():
    """A ``throw`` and a failed bound check inside compiled regions
    propagate out of the region to a caller's handler, and finally
    out of the program."""
    vm = same_as_vm(ESCAPES)
    assert len(compiled(vm, "Worker.run")) == 1
    assert len(compiled(vm, "Worker.probe")) == 1
    outcome = run(ESCAPES, "jit")[0]
    assert outcome == ("energy", "stop at 45")


IN_ACTIVE_TRY = MODES + """
class Main {
    void main() {
        int acc = 0;
        int i = 0;
        try {
            while (i < 100) { acc = acc + i; i = i + 1; }
        } catch (EnergyException e) { acc = -1; }
        Sys.print(acc);
    }
}
"""


def test_loop_inside_an_active_try_is_never_entered_through_osr():
    vm = same_as_vm(IN_ACTIVE_TRY)
    assert vm.jit_compiled == []
    assert vm._loops == {}, "no back edge may even count heat"


SPIN = MODES + """
class Main {
    void main() {
        int i = 0;
        while (true) { i = i + 1; }
    }
}
"""


@pytest.mark.parametrize("fuel", [HOT_LOOP_THRESHOLD,
                                  HOT_LOOP_THRESHOLD + 1, 5_000])
def test_fuel_runs_out_inside_a_region_at_the_vm_step(fuel):
    """One step for the activation, then one per back edge: the
    threshold-th back edge compiles the loop unless it is the one that
    runs out; either way the run stops at the VM's step."""
    vm = same_as_vm(SPIN, fuel=fuel)
    assert run(SPIN, "jit", fuel=fuel)[0][0] == "fuel"
    assert vm.jit_loop_compiles == (fuel > HOT_LOOP_THRESHOLD)


LOOP_THEN_CALL_HOT = MODES + """
class Acc {
    int sum(int n) {
        int s = 0;
        int i = 0;
        while (i < n) { s = s + i; i = i + 1; }
        return s;
    }
}
class Main {
    void main() {
        Acc a = new Acc();
        int total = 0;
        int k = 0;
        while (k < 20) { total = total + a.sum(40); k = k + 1; }
        Sys.print(total);
    }
}
"""


def test_loop_hot_then_call_hot_compiles_region_then_body():
    vm = same_as_vm(LOOP_THEN_CALL_HOT)
    log = compiled(vm, "Acc.sum")
    assert len(log) == 2
    assert "@" in log[0][0] and log[1] == ("Acc.sum", 1)
    assert HOT_CALL_THRESHOLD < 20


DEOPTING = MODES + """
class Base {
    int val() { return 1; }
}
class Sub extends Base {
    int val() { return 2; }
}
class Driver {
    int sum(Base b, int n) {
        int acc = 0;
        int i = 0;
        while (i < n) { acc = acc + b.val(); i = i + 1; }
        return acc;
    }
}
class Main {
    void main() {
        Driver d = new Driver();
        Base mono = new Base();
        Base poly = new Sub();
        Sys.print(d.sum(mono, 40));
        Sys.print(d.sum(poly, 40));
        Sys.print(d.sum(poly, 40));
        Sys.print(d.sum(mono, 40));
    }
}
"""


def test_region_deopting_past_the_limit_is_invalidated_and_recompiled():
    """The first region specializes ``b.val()`` on Base; the Sub run
    misses the guard past ``DEOPT_LIMIT`` and invalidates it (the
    running loop keeps deopting until it exits); the next hot run
    recompiles it as version 2, with a generic send."""
    vm = same_as_vm(DEOPTING)
    log = compiled(vm, "Driver.sum")
    assert [version for _, version in log] == [1, 2]
    assert all("@" in name for name, _ in log)
    assert vm.jit_invalidations == 1
    assert vm.jit_deopts > DEOPT_LIMIT
