"""Unit tests for the register-bytecode lowering and VM specifics:
engine resolution, superinstruction fallbacks, handler unwinding,
fuel accounting on ``continue``, and the disassembler."""

import pytest

from repro.core.errors import FuelExhausted
from repro.lang.bytecode import disassemble, lower_body
from repro.lang.engines import ENGINES, resolve_engine
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.typechecker import check_program

MODES = "modes { lo <= mid; mid <= hi; }\n"


def run(source, engine, fuel=100_000):
    interp = Interpreter(
        check_program(source),
        options=InterpOptions(engine=engine, fuel=fuel))
    interp.run()
    return interp


def agree(source, **kwargs):
    """Output of every engine on ``source``, asserted identical."""
    outputs = [run(source, engine, **kwargs).output
               for engine in ENGINES]
    assert outputs[0] == outputs[1] == outputs[2]
    return outputs[0]


class TestResolveEngine:
    def test_default_is_walk(self):
        assert resolve_engine() == "walk"

    def test_compiled_engine_retired(self):
        assert ENGINES == ("walk", "vm", "jit")
        with pytest.raises(ValueError, match="walk, vm, jit"):
            InterpOptions(engine="compiled")
        with pytest.raises(TypeError):
            InterpOptions(compile=True)
        with pytest.raises(TypeError):
            resolve_engine(compile_flag=True)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("tracing-gc")

    def test_jit_engine_registered(self):
        assert resolve_engine("jit") == "jit"

    def test_interp_options_engine_validated(self):
        checked = check_program(MODES + "class Main { void main() { } }")
        with pytest.raises(ValueError, match="unknown engine"):
            Interpreter(checked, options=InterpOptions(engine="tracing-gc"))

    def test_interp_records_engine(self):
        checked = check_program(MODES + "class Main { void main() { } }")
        interp = Interpreter(checked,
                             options=InterpOptions(engine="vm"))
        assert interp.engine == "vm"


class TestSuperinstructions:
    def test_inc_fallback_on_string_accumulator(self):
        # ``s = s + 1`` matches the INC pattern shape but the slot
        # holds a string at runtime; the VM must fall back to the
        # generic binary op (string concatenation), not arithmetic.
        source = MODES + """
class Main {
    void main() {
        String s = "n";
        int i = 0;
        while (i < 3) { s = s + 1; i = i + 1; }
        Sys.print(s);
    }
}
"""
        assert agree(source) == ["n111"]

    def test_inc_subtraction(self):
        source = MODES + """
class Main {
    void main() {
        int i = 10;
        while (i > 0) { i = i - 3; }
        Sys.print(i);
    }
}
"""
        assert agree(source) == ["-2"]

    def test_field_add_and_ret_field(self):
        source = MODES + """
class Acc@mode<hi> {
    int total;
    int bump(int k) { total = total + k; return total; }
}
class Main {
    void main() {
        Acc a = new Acc();
        int i = 0;
        while (i < 5) { a.bump(i); i = i + 1; }
        Sys.print(a.bump(0));
    }
}
"""
        assert agree(source) == ["10"]

    def test_fused_compare_on_floats_and_ints(self):
        source = MODES + """
class Main {
    void main() {
        int hits = 0;
        int i = 0;
        while (i < 4) {
            if (i <= 1.5) { hits = hits + 1; }
            if (i != 2) { hits = hits + 10; }
            i = i + 1;
        }
        Sys.print(hits);
    }
}
"""
        assert agree(source) == ["32"]


class TestControlFlow:
    def test_break_unwinds_handlers(self):
        # ``break`` out of a try inside a loop must pop the handler:
        # the throw after the loop ends the program, uncaught by the
        # (dead) loop handler.
        source = MODES + """
class D@mode<?X> {
    attributor { return hi; }
    D() { }
}
class Main {
    void main() {
        int acc = 0;
        int i = 0;
        while (i < 10) {
            try {
                i = i + 1;
                if (i > 2) { break; }
            } catch (EnergyException e) { acc = acc + 100; }
        }
        try { D d = snapshot (new D@mode<?>()) [_, lo]; }
        catch (EnergyException e) { acc = acc + 1; }
        Sys.print(acc + i);
    }
}
"""
        assert agree(source) == ["4"]

    def test_continue_is_charged_fuel(self):
        # A continue-only loop still consumes fuel each iteration; a
        # VM that skipped the loop-head FUEL charge on the back edge
        # would spin forever here.
        source = MODES + """
class Main {
    void main() {
        int i = 0;
        while (true) { i = i + 1; continue; }
    }
}
"""
        for engine in ENGINES:
            with pytest.raises(FuelExhausted):
                run(source, engine, fuel=2_000)

    def test_nested_loops_break_inner_only(self):
        source = MODES + """
class Main {
    void main() {
        int acc = 0;
        int i = 0;
        while (i < 3) {
            int j = 0;
            while (true) {
                j = j + 1;
                if (j >= 2) { break; }
            }
            acc = acc + j;
            i = i + 1;
        }
        Sys.print(acc);
    }
}
"""
        assert agree(source) == ["6"]


class TestDisassembler:
    HOT = MODES + """
class Acc@mode<hi> {
    int total;
    int bump(int k) { total = total + k; return total; }
}
class Main {
    void main() {
        Acc a = new Acc();
        int i = 0;
        while (i < 100) { a.bump(i); i = i + 1; }
        Sys.print(a.total);
    }
}
"""

    def _codes(self):
        checked = check_program(self.HOT)
        interp = Interpreter(checked,
                             options=InterpOptions(engine="vm"))
        program = checked.program
        texts = {}
        for cls in program.classes:
            for method in cls.methods:
                minfo = interp._find_method(interp.table.get(cls.name),
                                            method.name)
                texts[f"{cls.name}.{method.name}"] = disassemble(
                    interp._vm.code_for_method(minfo))
        return texts

    def test_superinstructions_in_listing(self):
        texts = self._codes()
        main = texts["Main.main"]
        assert "FUEL" in main
        assert "JF_LT" in main
        assert "INC" in main
        assert "CALL_DFALL" in main and ";; DFALL_CHECK" in main
        bump = texts["Acc.bump"]
        assert "FIELD_ADD" in bump
        assert "RET_FIELD" in bump

    def test_header_names_slots_and_consts(self):
        texts = self._codes()
        assert texts["Main.main"].splitlines()[0].startswith(
            "; Main.main ")
        assert "slots=" in texts["Main.main"]

    def test_const_pool_rendering(self):
        texts = self._codes()
        # The loop bound 100 lives in the const pool and renders as a
        # k-index with its value.
        assert "=100" in texts["Main.main"]

    def test_lower_body_idempotent_shape(self):
        checked = check_program(self.HOT)
        interp = Interpreter(checked,
                             options=InterpOptions(engine="vm"))
        decl = next(c for c in checked.program.classes
                    if c.name == "Acc").methods[0]
        one = lower_body(interp, decl.body, ["k"])
        two = lower_body(interp, decl.body, ["k"])
        assert disassemble(one) == disassemble(two)


class TestShallowOpcodes:
    """Transient checking lowers to dedicated shallow opcodes
    (``CALL_SHALLOW``/``SNAPSHOT_SHALLOW``) and the JIT inlines the
    matching tag probes; full checking must never emit them."""

    PROGRAM = MODES + """
class R@mode<?X> {
    int load;
    attributor {
        if (load > 10) { return hi; }
        return lo;
    }
    R(int load) { this.load = load; }
    int get() { return load; }
}
class Main {
    void main() {
        R@mode<?> r = new R@mode<?>(7);
        int i = 0;
        while (i < 3) {
            R s = snapshot r [lo, hi];
            Sys.print(s.get());
            i = i + 1;
        }
    }
}
"""

    def _main_listing(self, checks):
        checked = check_program(self.PROGRAM)
        interp = Interpreter(checked,
                             options=InterpOptions(engine="vm",
                                                   checks=checks))
        main_cls = next(c for c in checked.program.classes
                        if c.name == "Main")
        minfo = interp._find_method(interp.table.get("Main"), "main")
        assert main_cls is not None
        return disassemble(interp._vm.code_for_method(minfo))

    def test_transient_lowering_uses_shallow_opcodes(self):
        listing = self._main_listing("transient")
        assert "SNAPSHOT_SHALLOW" in listing
        assert "CALL_SHALLOW" in listing
        assert ";; BOUND_CHECK (transient: tag-vs-bounds probe)" \
            in listing
        assert ";; DFALL_CHECK (transient: shallow tag probe)" \
            in listing
        assert "CALL_DFALL" not in listing

    def test_full_lowering_keeps_deep_opcodes(self):
        listing = self._main_listing("full")
        assert "SHALLOW" not in listing
        assert "CALL_DFALL" in listing
        assert "SNAPSHOT " in listing or "SNAPSHOT\t" in listing

    def test_jit_inlines_shallow_probes(self):
        from repro.lang.jit import jit_source

        checked = check_program(self.PROGRAM)
        interp = Interpreter(checked,
                             options=InterpOptions(engine="vm",
                                                   checks="transient"))
        minfo = interp._find_method(interp.table.get("Main"), "main")
        source = jit_source(interp._vm,
                            interp._vm.code_for_method(minfo))
        assert "shallow_checks" in source
