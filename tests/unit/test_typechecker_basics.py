"""Typechecker unit tests: the Java-like fragment."""

import pytest

from repro.core.errors import EntTypeError
from repro.lang.typechecker import check_program

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"


def check(body, extra_classes=""):
    """Typecheck a Main with the given main body."""
    return check_program(
        MODES + extra_classes
        + "class Main { void main() { " + body + " } }")


def check_fails(body, fragment="", extra_classes=""):
    with pytest.raises(EntTypeError) as exc_info:
        check(body, extra_classes)
    if fragment:
        assert fragment in str(exc_info.value)


class TestLocalsAndTypes:
    def test_int_local(self):
        check("int x = 3; x = x + 1;")

    def test_double_widening(self):
        check("double d = 3;")

    def test_int_narrowing_rejected(self):
        check_fails("int x = 2.5;", "not assignable")

    def test_string_local(self):
        check('String s = "hi"; s = s + 1;')

    def test_boolean_condition_required(self):
        check_fails("if (1) { }", "boolean")

    def test_undefined_variable(self):
        check_fails("x = 1;", "unknown variable")

    def test_duplicate_local(self):
        check_fails("int x = 1; int x = 2;", "duplicate local")

    def test_block_scoping(self):
        check("if (true) { int x = 1; } if (true) { int x = 2; }")

    def test_out_of_scope(self):
        check_fails("if (true) { int x = 1; } x = 2;")

    def test_null_to_object(self):
        check("Helper h = null;", extra_classes="class Helper { }\n")

    def test_null_to_int_rejected(self):
        check_fails("int x = null;")

    def test_void_local_rejected(self):
        check_fails("void v = 1;")


class TestOperators:
    def test_arithmetic(self):
        check("int x = 1 + 2 * 3 - 4 / 2 % 2;")

    def test_mixed_arithmetic_is_double(self):
        check("double d = 1 + 2.0;")
        check_fails("int x = 1 + 2.0;")

    def test_comparison(self):
        check("boolean b = 1 < 2;")

    def test_comparison_on_strings_rejected(self):
        check_fails('boolean b = "a" < "b";')

    def test_equality_any(self):
        check('boolean b = "a" == "b";')

    def test_logical(self):
        check("boolean b = true && (1 < 2) || false;")

    def test_logical_requires_boolean(self):
        check_fails("boolean b = 1 && true;")

    def test_negation(self):
        check("int x = -3; boolean b = !true;")

    def test_string_concat_any(self):
        check('String s = "x" + 1 + true;')


class TestMethodsAndClasses:
    COUNTER = """
    class Counter {
        int count;
        Counter(int start) { this.count = start; }
        int increment(int by) { count = count + by; return count; }
        int get() { return count; }
    }
    """

    def test_construct_and_call(self):
        check("Counter c = new Counter(1); int x = c.increment(2);",
              extra_classes=self.COUNTER)

    def test_wrong_arity(self):
        check_fails("Counter c = new Counter(1); c.increment();",
                    "argument", extra_classes=self.COUNTER)

    def test_wrong_arg_type(self):
        check_fails('Counter c = new Counter("a");',
                    extra_classes=self.COUNTER)

    def test_unknown_method(self):
        check_fails("Counter c = new Counter(1); c.missing();",
                    "no method", extra_classes=self.COUNTER)

    def test_unknown_class(self):
        check_fails("Mystery m = new Mystery();", "unknown class")

    def test_field_access(self):
        check("Counter c = new Counter(0); int x = c.count;",
              extra_classes=self.COUNTER)

    def test_unknown_field(self):
        check_fails("Counter c = new Counter(0); int x = c.nope;",
                    "no field", extra_classes=self.COUNTER)

    def test_missing_return_rejected(self):
        check_fails("", extra_classes="""
        class Bad { int f(boolean b) { if (b) { return 1; } } }
        """)

    def test_all_paths_return_accepted(self):
        check("", extra_classes="""
        class Good {
            int f(boolean b) {
                if (b) { return 1; } else { return 2; }
            }
        }
        """)

    def test_void_cannot_return_value(self):
        check_fails("", extra_classes="class Bad { void f() { return 1; } }")

    def test_inheritance_field_and_method(self):
        check("Sub s = new Sub(); int x = s.base + s.basef();",
              extra_classes="""
        class Base { int base; int basef() { return base; } }
        class Sub extends Base { }
        """)

    def test_override_arity_mismatch_rejected(self):
        check_fails("", extra_classes="""
        class Base { int f(int x) { return x; } }
        class Sub extends Base { int f() { return 1; } }
        """)

    def test_inheritance_cycle_rejected(self):
        check_fails("", extra_classes="""
        class A1 extends B1 { }
        class B1 extends A1 { }
        """)

    def test_duplicate_class_rejected(self):
        check_fails("", extra_classes="class Twice { } class Twice { }")


class TestNativesAndLists:
    def test_list_ops(self):
        check("List l = new List(); l.add(1); int n = l.size(); "
              "boolean e = l.isEmpty();")

    def test_list_element_needs_cast(self):
        check_fails("List l = new List(); l.get(0).touch();",
                    "type-erased")

    def test_cast_from_list_element(self):
        check("List l = new List(); l.add(new Helper()); "
              "Helper h = (Helper) l.get(0);",
              extra_classes="class Helper { }\n")

    def test_foreach_over_list(self):
        check("List l = [1, 2, 3]; int total = 0; "
              "foreach (int x : l) { total = total + x; }")

    def test_foreach_requires_list(self):
        check_fails("foreach (int x : 3) { }", "foreach requires a List")

    def test_ext_and_sys(self):
        check("double b = Ext.battery(); double t = Ext.temperature(); "
              'Sys.print("b=" + b); Sys.work(10);')

    def test_math(self):
        check("int m = Math.min(1, 2); double s = Math.sqrt(2.0); "
              "int f = Math.floor(2.7);")

    def test_unknown_native_method(self):
        check_fails("Ext.frequency();", "unknown native")

    def test_string_methods(self):
        check('String s = "hello"; int n = s.length(); '
              'boolean b = s.startsWith("he"); List parts = s.split("l");')

    def test_try_catch_energy_exception(self):
        check('try { Sys.work(1); } catch (EnergyException e) '
              '{ Sys.print(e); }')

    def test_catch_other_exception_rejected(self):
        check_fails('try { } catch (IOException e) { }',
                    "EnergyException")

    def test_instanceof(self):
        check("Helper h = new Helper(); boolean b = h instanceof Helper;",
              extra_classes="class Helper { }\n")


class TestLoopControl:
    """``break`` and ``continue`` need a loop around them in the same
    body, as in Java: a loop in a calling method does not count, but a
    ``try`` inside a loop does."""

    BODIES = {
        "method": "class Main {{ void main() {{ {stmt} }} }}",
        "constructor": ("class Helper {{ Helper() {{ {stmt} }} }}\n"
                        "class Main {{ void main() {{ }} }}"),
        "attributor": ("class Helper@mode<?X> {{ attributor {{ {stmt} "
                       "return managed; }} }}\n"
                       "class Main {{ void main() {{ }} }}"),
    }

    @pytest.mark.parametrize("where", BODIES)
    @pytest.mark.parametrize("word", ["break", "continue"])
    def test_top_level_of_a_body_rejected(self, where, word):
        source = MODES + self.BODIES[where].format(stmt=word + ";")
        with pytest.raises(EntTypeError) as exc_info:
            check_program(source)
        assert f"{word} outside a loop" in str(exc_info.value)
        line = MODES.count("\n") + 1
        column = source.splitlines()[line - 1].index(word) + 1
        assert (exc_info.value.span.line,
                exc_info.value.span.column) == (line, column)

    @pytest.mark.parametrize("word", ["break", "continue"])
    def test_loop_in_the_caller_does_not_count(self, word):
        with pytest.raises(EntTypeError, match=f"{word} outside a loop"):
            check_program(MODES + f"""
class Main {{
    void helper() {{ {word}; }}
    void main() {{ while (true) {{ helper(); }} }}
}}""")

    @pytest.mark.parametrize("word", ["break", "continue"])
    def test_if_outside_a_loop_rejected(self, word):
        check_fails(f"if (true) {{ {word}; }}", f"{word} outside a loop")

    @pytest.mark.parametrize("word", ["break", "continue"])
    @pytest.mark.parametrize("body", [
        "while (true) {{ {w}; }}",
        "List l = [1]; foreach (int x : l) {{ {w}; }}",
        "while (true) {{ List l = [1]; foreach (int x : l) {{ {w}; }} "
        "{w}; }}",
        "while (true) {{ try {{ {w}; }} catch (EnergyException e) "
        "{{ {w}; }} }}",
        "while (true) {{ if (true) {{ {w}; }} }}",
    ], ids=["while", "foreach", "nested", "try in loop", "if in loop"])
    def test_inside_a_loop_accepted(self, word, body):
        check(body.format(w=word))
