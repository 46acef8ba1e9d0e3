"""Edge-case tests for the native library surface."""

import pytest

from repro.core.errors import EntRuntimeError
from repro.lang.interp import run_source

MODES = "modes { energy_saver <= managed; }\n"


def run(body, **kwargs):
    return run_source(
        MODES + "class Main { void main() { " + body + " } }", **kwargs)


class TestSysEdges:
    def test_rand_int_positive_bound(self):
        with pytest.raises(EntRuntimeError):
            run("int x = Sys.randInt(0);")

    def test_parse_int_rejects_garbage(self):
        with pytest.raises(EntRuntimeError):
            run('int x = Sys.parseInt("abc");')

    def test_parse_int_strips_whitespace(self):
        interp = run('Sys.print(Sys.parseInt("  42 "));')
        assert interp.output == ["42"]

    def test_str_of_everything(self):
        interp = run('Sys.print(Sys.str(null) + "/" + Sys.str(true) '
                     '+ "/" + Sys.str(2.0));')
        assert interp.output == ["null/true/2.0"]

    def test_time_advances_with_sleep(self):
        interp = run("double a = Sys.time(); Sys.sleep(100); "
                     "Sys.print(Sys.time() > a);")
        assert interp.output == ["true"]


class TestMathEdges:
    def test_sqrt_negative(self):
        with pytest.raises(EntRuntimeError):
            run("double x = Math.sqrt(0.0 - 1.0);")

    def test_log_nonpositive(self):
        with pytest.raises(EntRuntimeError):
            run("double x = Math.log(0);")

    def test_min_max_int_preserving(self):
        interp = run("Sys.print(Math.min(3, 5)); "
                     "Sys.print(Math.max(3.0, 5));")
        assert interp.output == ["3", "5.0"]

    def test_pow(self):
        interp = run("Sys.print(Math.pow(2, 10));")
        assert interp.output == ["1024.0"]

    def test_floor_ceil_negative(self):
        interp = run("Sys.print(Math.floor(0.0 - 1.5)); "
                     "Sys.print(Math.ceil(0.0 - 1.5));")
        assert interp.output == ["-2", "-1"]


class TestListEdges:
    def test_set_out_of_range(self):
        with pytest.raises(EntRuntimeError):
            run("List l = new List(); l.set(0, 1);")

    def test_remove_out_of_range(self):
        with pytest.raises(EntRuntimeError):
            run("List l = [1]; l.remove(5);")

    def test_add_all(self):
        interp = run("List a = [1, 2]; List b = [3]; b.addAll(a); "
                     "Sys.print(b.size());")
        assert interp.output == ["3"]

    def test_contains_uses_value_equality_for_prims(self):
        interp = run('List l = ["x", "y"]; Sys.print(l.contains("x"));')
        assert interp.output == ["true"]

    def test_contains_identity_for_objects(self):
        source = MODES + """
        class Box { }
        class Main {
            void main() {
                List l = new List();
                l.add(new Box());
                Sys.print(l.contains(new Box()));
            }
        }
        """
        assert run_source(source).output == ["false"]

    def test_index_of_missing(self):
        interp = run("List l = [1, 2]; Sys.print(l.indexOf(9));")
        assert interp.output == ["-1"]


class TestStringEdges:
    def test_substring_bounds(self):
        with pytest.raises(EntRuntimeError):
            run('String s = "abc".substring(2, 1);')

    def test_char_at_bounds(self):
        with pytest.raises(EntRuntimeError):
            run('String s = "abc".charAt(5);')

    def test_split_empty_separator(self):
        with pytest.raises(EntRuntimeError):
            run('List l = "abc".split("");')

    def test_ends_with(self):
        interp = run('Sys.print("photo.jpeg".endsWith(".jpeg"));')
        assert interp.output == ["true"]

    def test_index_of(self):
        interp = run('Sys.print("banana".indexOf("na"));')
        assert interp.output == ["2"]

    def test_equals_cross_type(self):
        interp = run('Sys.print("1".equals(1));')
        assert interp.output == ["false"]

    def test_empty_string_hashcode(self):
        interp = run('Sys.print("".hashCode());')
        assert interp.output == ["0"]

    def test_hashcode_overflow_wraps_like_java(self):
        # A long string exercises the 32-bit wrap-around.
        interp = run('Sys.print("aaaaaaaaaaaaaaaaaaaa".hashCode());')
        value = int(interp.output[0])
        assert -(2 ** 31) <= value < 2 ** 31


class TestExtBinding:
    def test_defaults_without_platform(self):
        interp = run("Sys.print(Ext.battery()); "
                     "Sys.print(Ext.temperature());")
        assert interp.output == ["1.0", "45.0"]

    def test_bound_platform_values(self):
        from repro.platform import make_platform
        platform = make_platform("A", seed=1)
        platform.battery.set_fraction(0.25)
        interp = run("Sys.print(Ext.battery() < 0.3);",
                     platform=platform)
        assert interp.output == ["true"]
