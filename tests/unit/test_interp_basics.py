"""Interpreter unit tests: the Java-like fragment."""

import pytest

from repro.core.errors import BadCastError, EntRuntimeError, FuelExhausted
from repro.lang.interp import InterpOptions, run_source

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"


def run(body, extra_classes="", **kwargs):
    source = (MODES + extra_classes
              + "class Main { void main() { " + body + " } }")
    return run_source(source, **kwargs)


def output_of(body, extra_classes="", **kwargs):
    return run(body, extra_classes, **kwargs).output


class TestArithmetic:
    def test_integers(self):
        assert output_of("Sys.print(1 + 2 * 3);") == ["7"]

    def test_truncating_division(self):
        # Java semantics: integer division truncates towards zero.
        assert output_of("Sys.print(7 / 2); Sys.print(-7 / 2);") == \
            ["3", "-3"]

    def test_modulo_sign(self):
        assert output_of("Sys.print(-7 % 2);") == ["-1"]

    def test_division_by_zero(self):
        with pytest.raises(EntRuntimeError):
            run("int x = 1 / 0;")

    def test_doubles(self):
        assert output_of("Sys.print(1.5 + 2.5);") == ["4.0"]

    def test_comparisons(self):
        assert output_of("Sys.print(1 < 2); Sys.print(2 <= 1);") == \
            ["true", "false"]

    def test_short_circuit(self):
        # Division by zero on the right is never evaluated.
        assert output_of(
            "boolean b = false && (1 / 0 == 0); Sys.print(b);") == ["false"]

    def test_string_concat(self):
        assert output_of('Sys.print("x=" + 1 + "," + true + "," + null);'
                         ) == ["x=1,true,null"]


class TestControlFlow:
    def test_while_loop(self):
        assert output_of(
            "int i = 0; int acc = 0;"
            "while (i < 5) { acc = acc + i; i = i + 1; }"
            "Sys.print(acc);") == ["10"]

    def test_break_continue(self):
        assert output_of(
            "int i = 0; int acc = 0;"
            "while (true) { i = i + 1; if (i > 10) { break; }"
            "  if (i % 2 == 0) { continue; } acc = acc + i; }"
            "Sys.print(acc);") == ["25"]

    def test_foreach(self):
        assert output_of(
            "int acc = 0; foreach (int x : [1, 2, 3]) { acc = acc + x; }"
            "Sys.print(acc);") == ["6"]

    def test_nested_if(self):
        assert output_of(
            "int x = 5;"
            "if (x > 10) { Sys.print(1); }"
            "else { if (x > 3) { Sys.print(2); } else { Sys.print(3); } }"
            ) == ["2"]

    def test_fuel_bounds_divergence(self):
        with pytest.raises(FuelExhausted):
            run("while (true) { }", options=InterpOptions(fuel=1000))


class TestObjects:
    COUNTER = """
    class Counter {
        int count;
        Counter(int start) { this.count = start; }
        int increment() { count = count + 1; return count; }
    }
    """

    def test_fields_and_methods(self):
        assert output_of(
            "Counter c = new Counter(10); c.increment(); c.increment();"
            "Sys.print(c.count);", self.COUNTER) == ["12"]

    def test_field_defaults(self):
        assert output_of(
            "Holder h = new Holder(); Sys.print(h.n); Sys.print(h.d); "
            "Sys.print(h.b); Sys.print(h.s);",
            "class Holder { int n; double d; boolean b; String s; }"
            ) == ["0", "0.0", "false", "null"]

    def test_field_initializers(self):
        assert output_of(
            "Holder h = new Holder(); Sys.print(h.greeting);",
            'class Holder { String greeting = "hi"; }') == ["hi"]

    def test_objects_identity_equality(self):
        assert output_of(
            "Counter a = new Counter(1); Counter b = new Counter(1);"
            "Counter c = a;"
            "Sys.print(a == b); Sys.print(a == c);", self.COUNTER) == \
            ["false", "true"]

    def test_inherited_method(self):
        assert output_of(
            "Sub s = new Sub(); Sys.print(s.basef());",
            "class Base { int basef() { return 42; } }"
            "class Sub extends Base { }") == ["42"]

    def test_override_dispatch(self):
        assert output_of(
            "Base b = new Sub(); Sys.print(b.f());",
            "class Base { int f() { return 1; } }"
            "class Sub extends Base { int f() { return 2; } }"
            .replace("class Sub extends Base",
                     "class Sub extends Base")) == ["2"]

    def test_instanceof_subclass(self):
        assert output_of(
            "Base x = new Sub();"
            "Sys.print(x instanceof Sub); Sys.print(x instanceof Base);",
            "class Base { } class Sub extends Base { }") == \
            ["true", "true"]

    def test_null_receiver(self):
        with pytest.raises(EntRuntimeError):
            run("Counter c = null; c.increment();", self.COUNTER)


class TestCastsAndLists:
    def test_numeric_casts(self):
        assert output_of("Sys.print((int) 2.9); Sys.print((double) 2);"
                         ) == ["2", "2.0"]

    def test_list_roundtrip_with_cast(self):
        assert output_of(
            "List l = new List(); l.add(new Box()); "
            "Box b = (Box) l.get(0); Sys.print(b.v);",
            "class Box { int v = 7; }") == ["7"]

    def test_bad_class_cast(self):
        with pytest.raises(BadCastError):
            run("List l = new List(); l.add(new A2()); B2 b = (B2) l.get(0);",
                "class A2 { } class B2 { }")

    def test_null_cast_ok(self):
        assert output_of(
            "Box b = (Box) null; Sys.print(b == null);",
            "class Box { }") == ["true"]

    def test_list_methods(self):
        assert output_of(
            "List l = [10, 20, 30];"
            "Sys.print(l.size()); Sys.print(l.get(1));"
            "Sys.print(l.indexOf(30)); Sys.print(l.contains(99));"
            "l.remove(0); Sys.print(l.get(0));"
            "l.set(0, 5); Sys.print(l.get(0));"
            "l.clear(); Sys.print(l.isEmpty());") == \
            ["3", "20", "2", "false", "20", "5", "true"]

    def test_list_out_of_range(self):
        with pytest.raises(EntRuntimeError):
            run("List l = new List(); l.get(0);")

    def test_string_methods(self):
        assert output_of(
            'String s = "Hello World";'
            "Sys.print(s.length()); Sys.print(s.substring(0, 5));"
            'Sys.print(s.contains("World")); Sys.print(s.toLowerCase());'
            'Sys.print(s.split(" ").size());') == \
            ["11", "Hello", "true", "hello world", "2"]

    def test_string_hashcode_java_compatible(self):
        # "Abc".hashCode() in Java is 65602.
        assert output_of('Sys.print("Abc".hashCode());') == ["65602"]


class TestNatives:
    def test_math(self):
        assert output_of(
            "Sys.print(Math.min(3, 1)); Sys.print(Math.max(2.0, 5.0));"
            "Sys.print(Math.floor(2.9)); Sys.print(Math.ceil(2.1));"
            "Sys.print(Math.abs(-4)); Sys.print(Math.sqrt(16.0));") == \
            ["1", "5.0", "2", "3", "4", "4.0"]

    def test_sys_parse_int(self):
        assert output_of('Sys.print(Sys.parseInt("42") + 1);') == ["43"]

    def test_sys_rand_deterministic(self):
        a = output_of("Sys.print(Sys.randInt(100));", seed=5)
        b = output_of("Sys.print(Sys.randInt(100));", seed=5)
        assert a == b

    def test_platform_accounting(self):
        interp = run("Sys.work(10); Sys.io(100); Sys.net(20); "
                     "Sys.sleep(50);")
        assert interp.platform.work_units == 10
        assert interp.platform.io_total == 100
        assert interp.platform.net_total == 20
        assert interp.platform.slept == pytest.approx(0.05)

    def test_main_args(self):
        source = MODES + """
        class Main {
            void main(List args) {
                foreach (String a : args) { Sys.print(a); }
            }
        }
        """
        interp = run_source(source, args=["x", "y"])
        assert interp.output == ["x", "y"]


class TestOptions:
    def test_misspelled_checks_rejected(self):
        with pytest.raises(ValueError, match="full, transient"):
            InterpOptions(checks="transiant")

    def test_check_dfall_option_removed(self):
        with pytest.raises(TypeError):
            InterpOptions(check_dfall=False)
