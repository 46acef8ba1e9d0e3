"""Advanced language tests: inheritance with modes, multi-parameter
generics, attributor inheritance, runtime casts, and scoping corners."""

import pytest

from repro.core.errors import (BadCastError, EnergyException,
                               EntTypeError, WaterfallError)
from repro.lang import check_program, run_source
from repro.lang.engines import ENGINES
from repro.lang.interp import InterpOptions

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"


def run(source, **kwargs):
    return run_source(MODES + source, **kwargs)


def check(source, **kwargs):
    return check_program(MODES + source, **kwargs)


#: An explicit super argument for a variable name the subclass reuses.
PINNED_PROGRAM = """
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

#: An inherited method reads the superclass's dynamic variable after a
#: snapshot of the subclass.
INHERITED_SNAPSHOT_PROGRAM = """
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


class TestInheritanceWithModes:
    def test_mode_passthrough_by_default(self):
        """Without an explicit extends instantiation, the subclass's
        mode flows to the superclass."""
        interp = run("""
        class Base@mode<X> {
            mcase<int> tier = mcase{ energy_saver: 1; managed: 2;
                                     full_throttle: 3; };
            int tell() { return tier; }
        }
        class Derived@mode<X> extends Base { }
        class Main {
            void main() {
                Derived d = new Derived@mode<full_throttle>();
                Sys.print(d.tell());
            }
        }
        """)
        assert interp.output == ["3"]

    def test_explicit_super_instantiation(self):
        interp = run("""
        class Base@mode<X> {
            mcase<int> tier = mcase{ energy_saver: 1; managed: 2;
                                     full_throttle: 3; };
        }
        class Pinned@mode<X> extends Base@mode<energy_saver> {
            int tell() { return mselect(tier, energy_saver); }
        }
        class Main {
            void main() {
                Pinned p = new Pinned@mode<managed>();
                Sys.print(p.tell());
            }
        }
        """)
        assert interp.output == ["1"]

    @pytest.mark.parametrize("checks", ["full", "transient"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_explicit_super_argument_keeps_the_subclass_variable(
            self, engine, checks):
        """``Base``'s ``X := energy_saver`` binds Base's variable only:
        ``Pinned``'s own ``X`` stays ``full_throttle``, so the send to a
        managed helper passes dfall (Corollary 1)."""
        interp = run(PINNED_PROGRAM, options=InterpOptions(
            engine=engine, checks=checks))
        assert interp.output == ["5"]

    @pytest.mark.parametrize("checks", ["full", "transient"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_explicit_super_argument_keeps_the_subclass_mode(
            self, engine, checks):
        """Implicit elimination of the subclass's own mode case reads
        the subclass's mode, not the superclass argument."""
        interp = run("""
        class Base@mode<X> { int b() { return 1; } }
        class Pinned@mode<managed <= X <= full_throttle>
                extends Base@mode<energy_saver> {
            mcase<int> mine = mcase{ energy_saver: 1; managed: 2;
                                     full_throttle: 3; };
            int tell() { return mine; }
        }
        class Main {
            void main() {
                Pinned p = new Pinned@mode<managed>();
                Sys.print(p.tell());
            }
        }
        """, options=InterpOptions(engine=engine, checks=checks))
        assert interp.output == ["2"]

    @pytest.mark.parametrize("checks", ["full", "transient"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_snapshot_reaches_inherited_variables(self, engine, checks):
        """The snapshot's mode flows to ``Base``'s ``X`` through the
        default passthrough, so the inherited ``mselect`` is not stuck
        (Theorem 1)."""
        interp = run(INHERITED_SNAPSHOT_PROGRAM, options=InterpOptions(
            engine=engine, checks=checks))
        assert interp.output == ["3"]

    def test_dynamic_subclass_inherits_attributor(self):
        interp = run("""
        class Base@mode<?X> {
            int n;
            attributor {
                if (n > 10) { return full_throttle; }
                return energy_saver;
            }
        }
        class Derived@mode<?Y> extends Base {
            Derived(int n) { this.n = n; }
            int probe() { return 7; }
        }
        class Main {
            void main() {
                Derived d = snapshot (new Derived@mode<?>(50));
                Sys.print(d.probe());
            }
        }
        """)
        assert interp.output == ["7"]

    def test_overriding_method_dispatches_dynamically(self):
        interp = run("""
        class Base@mode<managed> { int f() { return 1; } }
        class Derived@mode<managed> extends Base {
            int f() { return 2; }
        }
        class Main {
            void main() {
                Base b = new Derived();
                Sys.print(b.f());
            }
        }
        """)
        assert interp.output == ["2"]

    def test_super_instantiation_respects_bounds(self):
        with pytest.raises(EntTypeError):
            check("""
            class Base@mode<managed <= X <= full_throttle> { }
            class Bad@mode<Y> extends Base@mode<energy_saver> { }
            class Main { void main() { } }
            """)


class TestFieldRedeclaration:
    """Featherweight Java's rule: a field may not redeclare an inherited
    one (an object has one slot per field name)."""

    def test_redeclared_parent_field_rejected(self):
        with pytest.raises(EntTypeError) as info:
            check("""
            class A { int x = 1; }
            class B extends A { boolean x = true; }
            class Main {
                void main() { B b = new B(); if (b.x) { Sys.print(1); } }
            }
            """)
        assert "field 'x' of B redeclares A.x" in str(info.value)
        assert (info.value.span.line, info.value.span.column) == (4, 33)

    def test_redeclared_grandparent_field_rejected(self):
        with pytest.raises(EntTypeError) as info:
            check("""
            class A { int x = 1; }
            class B extends A { int y = 2; }
            class C extends B { int x = 3; }
            class Main { void main() { C c = new C(); Sys.print(c.x); } }
            """)
        assert "field 'x' of C redeclares A.x" in str(info.value)
        assert info.value.span.line == 5

    def test_same_name_in_unrelated_classes_accepted(self):
        interp = run("""
        class A { int x = 1; }
        class B { boolean x = true; }
        class C extends A { int y = 2; }
        class Main {
            void main() {
                B b = new B();
                C c = new C();
                if (b.x) { Sys.print(c.x + c.y); }
            }
        }
        """)
        assert interp.output == ["3"]


class TestMultiParamGenerics:
    SOURCE = """
    class Pair@mode<X, Y> {
        mcase<int> first = mcase{ energy_saver: 1; managed: 2;
                                  full_throttle: 3; };
        int firstOf() { return first; }
    }
    """

    def test_instantiation_and_use(self):
        interp = run(self.SOURCE + """
        class Main {
            void main() {
                Pair@mode<managed, full_throttle> p =
                    new Pair@mode<managed, full_throttle>();
                Sys.print(p.firstOf());
            }
        }
        """)
        assert interp.output == ["2"]

    def test_second_param_does_not_affect_omode(self):
        check(self.SOURCE + """
        class Caller@mode<managed> {
            int go(Pair@mode<energy_saver, full_throttle> p) {
                return p.firstOf();
            }
        }
        class Main { void main() { } }
        """)

    def test_arity_checked(self):
        with pytest.raises(EntTypeError):
            check(self.SOURCE + """
            class Main {
                void main() { Pair p = new Pair@mode<managed>(); }
            }
            """)


class TestGenericMethodBounds:
    def test_bounded_method_var(self):
        check("""
        class Data@mode<X> { int size; }
        class Tool {
            @mode<managed <= Z <= full_throttle>
            int heavy(Data@mode<Z> d) { return d.size; }
        }
        class Main {
            void main() {
                Tool t = new Tool();
                Data@mode<full_throttle> d =
                    new Data@mode<full_throttle>();
                int x = t.heavy(d);
            }
        }
        """)

    def test_inference_through_mcase_argument(self):
        check("""
        class Tool {
            @mode<Z> int pick(Holder@mode<Z> h) { return 1; }
        }
        class Holder@mode<X> { }
        class Main {
            void main() {
                Tool t = new Tool();
                int x = t.pick(new Holder@mode<managed>());
            }
        }
        """)

    def test_conflicting_inference_rejected(self):
        with pytest.raises(EntTypeError):
            check("""
            class Box@mode<X> { }
            class Tool {
                @mode<Z> int two(Box@mode<Z> a, Box@mode<Z> b) {
                    return 1;
                }
            }
            class Main {
                void main() {
                    Tool t = new Tool();
                    int x = t.two(new Box@mode<managed>(),
                                  new Box@mode<full_throttle>());
                }
            }
            """)


class TestRuntimeCasts:
    LIB = """
    class Box@mode<X> { int v; Box(int v) { this.v = v; } }
    class SubBox@mode<X> extends Box {
        SubBox(int v) { this.v = v; }
    }
    """

    def test_mode_checked_downcast_succeeds(self):
        interp = run(self.LIB + """
        class Main {
            void main() {
                List l = new List();
                l.add(new Box@mode<managed>(9));
                Box@mode<managed> b = (Box@mode<managed>) l.get(0);
                Sys.print(b.v);
            }
        }
        """)
        assert interp.output == ["9"]

    def test_wrong_mode_cast_raises(self):
        with pytest.raises(BadCastError):
            run(self.LIB + """
            class Main {
                void main() {
                    List l = new List();
                    l.add(new Box@mode<managed>(9));
                    Box@mode<full_throttle> b =
                        (Box@mode<full_throttle>) l.get(0);
                }
            }
            """)

    def test_class_downcast_checked(self):
        with pytest.raises(BadCastError):
            run(self.LIB + """
            class Main {
                void main() {
                    List l = new List();
                    l.add(new Box@mode<managed>(1));
                    SubBox@mode<managed> s =
                        (SubBox@mode<managed>) l.get(0);
                }
            }
            """)

    def test_upcast_through_list(self):
        interp = run(self.LIB + """
        class Main {
            void main() {
                List l = new List();
                l.add(new SubBox@mode<managed>(4));
                Box@mode<managed> b = (Box@mode<managed>) l.get(0);
                Sys.print(b.v);
            }
        }
        """)
        assert interp.output == ["4"]


class TestScopingCorners:
    def test_param_shadows_field(self):
        interp = run("""
        class C {
            int x;
            C() { this.x = 10; }
            int probe(int x) { return x; }
            int field() { return x; }
        }
        class Main {
            void main() {
                C c = new C();
                Sys.print(c.probe(1));
                Sys.print(c.field());
            }
        }
        """)
        assert interp.output == ["1", "10"]

    def test_local_shadows_mode_constant(self):
        # A local named like a mode hides the mode literal.
        interp = run("""
        class Main {
            void main() {
                int managed = 42;
                Sys.print(managed);
            }
        }
        """)
        assert interp.output == ["42"]

    def test_foreach_variable_scoped(self):
        with pytest.raises(EntTypeError):
            check("""
            class Main {
                void main() {
                    foreach (int x : [1, 2]) { }
                    Sys.print(x);
                }
            }
            """)

    def test_nested_loops_break_inner_only(self):
        interp = run("""
        class Main {
            void main() {
                int total = 0;
                foreach (int i : [1, 2, 3]) {
                    foreach (int j : [10, 20, 30]) {
                        if (j == 20) { break; }
                        total = total + i * j;
                    }
                }
                Sys.print(total);
            }
        }
        """)
        assert interp.output == ["60"]

    def test_field_write_on_other_object(self):
        interp = run("""
        class Cell { int v; }
        class Main {
            void main() {
                Cell c = new Cell();
                c.v = 5;
                c.v = c.v + 1;
                Sys.print(c.v);
            }
        }
        """)
        assert interp.output == ["6"]


class TestExceptionsAndModes:
    def test_throw_caught_as_energy_exception(self):
        interp = run("""
        class Main {
            void main() {
                try { throw "manual bail"; }
                catch (EnergyException e) { Sys.print("got: " + e); }
            }
        }
        """)
        assert interp.output == ["got: manual bail"]

    def test_uncaught_throw_escapes(self):
        with pytest.raises(EnergyException):
            run("""
            class Main { void main() { throw "boom"; } }
            """)

    def test_exception_inside_attributor_propagates(self):
        # An attributor can itself signal an energy condition.
        with pytest.raises(EnergyException):
            run("""
            class D@mode<?X> {
                attributor {
                    if (Ext.battery() < 2.0) { throw "no power data"; }
                    return managed;
                }
                D() { }
            }
            class Main {
                void main() { D d = snapshot (new D@mode<?>()); }
            }
            """)

    def test_mode_values_comparable(self):
        interp = run("""
        class D@mode<?X> {
            attributor { return managed; }
            D() { }
        }
        class Main {
            void main() {
                Sys.print(managed == managed);
                Sys.print(managed == full_throttle);
            }
        }
        """)
        assert interp.output == ["true", "false"]

    def test_nested_try_inner_catches(self):
        interp = run("""
        class Main {
            void main() {
                try {
                    try { throw "inner"; }
                    catch (EnergyException e) { Sys.print("A:" + e); }
                    throw "outer";
                } catch (EnergyException e) { Sys.print("B:" + e); }
            }
        }
        """)
        assert interp.output == ["A:inner", "B:outer"]


class TestSnapshotCorners:
    DYN = """
    class D@mode<?X> {
        int n;
        attributor {
            if (n > 10) { return full_throttle; }
            return energy_saver;
        }
        D(int n) { this.n = n; }
        int get() { return n; }
    }
    """

    def test_snapshot_in_loop_tracks_state(self):
        interp = run(self.DYN + """
        class Main {
            void main() {
                D d = new D@mode<?>(5);
                int i = 0;
                while (i < 3) {
                    D s = snapshot d;
                    Sys.print(s.get());
                    d.n = d.n + 10;
                    i = i + 1;
                }
            }
        }
        """)
        assert interp.output == ["5", "15", "25"]

    def test_snapshot_result_passed_as_argument(self):
        interp = run(self.DYN + """
        class Consumer@mode<full_throttle> {
            int eat(D@mode<full_throttle> d) { return d.get(); }
        }
        class Main {
            void main() {
                D d = new D@mode<?>(50);
                D@mode<full_throttle> s =
                    snapshot d [full_throttle, full_throttle];
                Consumer c = new Consumer();
                Sys.print(c.eat(s));
            }
        }
        """)
        assert interp.output == ["50"]

    def test_snapshot_bound_by_class_var(self):
        check(self.DYN + """
        class Wrapper@mode<X> {
            int go(D d) {
                D s = snapshot d [_, X];
                return s.get();
            }
        }
        class Main { void main() { } }
        """)

    def test_double_snapshot_distinct_objects(self):
        interp = run(self.DYN + """
        class Main {
            void main() {
                D d = new D@mode<?>(3);
                D a = snapshot d;
                D b = snapshot d;
                Sys.print(a == b);
            }
        }
        """)
        # First snapshot lazily tags in place, second copies.
        assert interp.output == ["false"]
