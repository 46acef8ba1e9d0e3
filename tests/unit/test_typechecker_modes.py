"""Typechecker unit tests for the ENT-specific rules (paper section 4.1):
T-New, T-Msg/sfall, T-Snapshot, T-MCase, T-ElimCase, generic modes, the
internal/external distinction, and method-level mode characterization."""

import pytest

from repro.cli import main
from repro.core.errors import EntTypeError, WaterfallError
from repro.lang.typechecker import check_program

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"

DYN_SITE = """
class Site@mode<?X> {
    List resources;
    attributor {
        if (resources.size() > 200) { return full_throttle; }
        if (resources.size() > 50) { return managed; }
        return energy_saver;
    }
    Site(int n) {
        this.resources = new List();
        int i = 0;
        while (i < n) { resources.add(i); i = i + 1; }
    }
    mcase<int> depth = mcase{
        energy_saver: 1; managed: 2; full_throttle: 3;
    };
    int crawl() { return resources.size() * depth; }
}
"""


def check(source):
    return check_program(MODES + source)


def check_fails(source, fragment="", error=EntTypeError):
    with pytest.raises(error) as exc_info:
        check(source)
    if fragment:
        assert fragment in str(exc_info.value)
    return exc_info.value


class TestTNew:
    def test_dynamic_class_instantiated_at_question(self):
        check(DYN_SITE + """
        class Main { void main() { Site s = new Site@mode<?>(10); } }
        """)

    def test_dynamic_class_elided_mode_defaults_to_question(self):
        check(DYN_SITE + """
        class Main { void main() { Site s = new Site(10); } }
        """)

    def test_dynamic_class_cannot_be_instantiated_concrete(self):
        check_fails(DYN_SITE + """
        class Main { void main() { Site s = new Site@mode<managed>(10); } }
        """, "must be instantiated at '?'")

    def test_concrete_class_cannot_be_instantiated_dynamic(self):
        check_fails("""
        class Fixed@mode<managed> { }
        class Main { void main() { Fixed f = new Fixed@mode<?>(); } }
        """, "may only instantiate the dynamic parameter")

    def test_instantiation_respects_bounds(self):
        check_fails("""
        class Bounded@mode<managed <= X <= full_throttle> { }
        class Main {
            void main() {
                Bounded b = new Bounded@mode<energy_saver>();
            }
        }
        """, "violates lower bound")

    def test_instantiation_within_bounds(self):
        check("""
        class Bounded@mode<managed <= X <= full_throttle> { }
        class Main {
            void main() {
                Bounded@mode<full_throttle> b =
                    new Bounded@mode<full_throttle>();
            }
        }
        """)

    def test_fixed_mode_class_wrong_mode(self):
        check_fails("""
        class Fixed@mode<managed> { }
        class Main {
            void main() { Fixed f = new Fixed@mode<energy_saver>(); }
        }
        """, "fixed at mode")

    def test_mode_arg_count_mismatch(self):
        check_fails("""
        class Two@mode<X, Y> { }
        class Main { void main() { Two t = new Two@mode<managed>(); } }
        """, "mode argument")


class TestWaterfall:
    def test_downhill_allowed(self):
        check("""
        class Light@mode<energy_saver> { int f() { return 1; } }
        class Heavy@mode<full_throttle> {
            int go(Light l) { return l.f(); }
        }
        class Main { void main() { } }
        """)

    def test_uphill_rejected(self):
        check_fails("""
        class Light@mode<energy_saver> {
            int go(Heavy h) { return h.f(); }
        }
        class Heavy@mode<full_throttle> { int f() { return 1; } }
        class Main { void main() { } }
        """, "waterfall", WaterfallError)

    def test_equal_mode_allowed(self):
        check("""
        class A1@mode<managed> { int f() { return 1; } }
        class B1@mode<managed> { int go(A1 a) { return a.f(); } }
        class Main { void main() { } }
        """)

    def test_main_is_top(self):
        # Main runs at ⊤, so it may message anything.
        check("""
        class Heavy@mode<full_throttle> { int f() { return 1; } }
        class Main {
            void main() { Heavy h = new Heavy(); int x = h.f(); }
        }
        """)

    def test_messaging_dynamic_rejected(self):
        check_fails(DYN_SITE + """
        class Main {
            void main() { Site s = new Site(10); int x = s.crawl(); }
        }
        """, "snapshot it first", WaterfallError)

    def test_self_messaging_always_allowed(self):
        check(DYN_SITE.replace(
            "int crawl() { return resources.size() * depth; }",
            "int crawl() { return helper(); } "
            "int helper() { return this.helper2(); } "
            "int helper2() { return depth; }") + """
        class Main { void main() { } }
        """)

    def test_generic_var_leq_itself(self):
        check("""
        class Pair@mode<X> {
            Pair@mode<X> other;
            int f() { return other.f(); }
        }
        class Main { void main() { } }
        """)

    def test_generic_var_uphill_rejected(self):
        check_fails("""
        class Holder@mode<X> {
            Heavy h;
            int f() { return h.f(); }
        }
        class Heavy@mode<full_throttle> { int f() { return 1; } }
        class Main { void main() { } }
        """, "waterfall", WaterfallError)

    def test_bounded_var_can_message_its_lower_bound(self):
        check("""
        class Worker@mode<managed <= X <= full_throttle> {
            Helper h;
            int f() { return h.f(); }
        }
        class Helper@mode<managed> { int f() { return 1; } }
        class Main { void main() { } }
        """)


class TestSnapshot:
    def test_snapshot_gives_usable_mode(self):
        check(DYN_SITE + """
        class Main {
            void main() {
                Site ds = new Site(10);
                Site s = snapshot ds;
                int x = s.crawl();
            }
        }
        """)

    def test_snapshot_requires_dynamic(self):
        check_fails("""
        class Fixed@mode<managed> { }
        class Main {
            void main() { Fixed f = new Fixed(); Fixed g = snapshot f; }
        }
        """, "dynamic mode")

    def test_snapshot_on_primitive_rejected(self):
        check_fails("""
        class Main { void main() { int x = snapshot 3; } }
        """.replace("snapshot 3", "snapshot x"), "")

    def test_bounded_snapshot_in_class_scope(self):
        check(DYN_SITE + """
        class Agent@mode<?X> {
            attributor { return managed; }
            int work() {
                Site ds = new Site(10);
                Site s = snapshot ds [_, X];
                return s.crawl();
            }
        }
        class Main { void main() { } }
        """)

    def test_unbounded_snapshot_messaging_from_mode_var_rejected(self):
        # Without the [_, X] bound, the snapshotted Site's fresh mode is
        # unconstrained, so X-mode Agent cannot message it — the
        # debuggability scenario of section 6.3.
        check_fails(DYN_SITE + """
        class Agent@mode<?X> {
            attributor { return managed; }
            int work() {
                Site ds = new Site(10);
                Site s = snapshot ds;
                return s.crawl();
            }
        }
        class Main { void main() { } }
        """, "waterfall", WaterfallError)

    def test_snapshot_bound_must_be_mode_or_var(self):
        check_fails(DYN_SITE + """
        class Main {
            void main() {
                Site ds = new Site(10);
                Site s = snapshot ds [_, nonsense];
            }
        }
        """, "neither a declared mode nor a mode variable")

    def test_dynamic_class_requires_attributor(self):
        check_fails("""
        class NoAttr@mode<?> { }
        class Main { void main() { } }
        """, "must declare (or inherit) an attributor")

    def test_static_class_with_attributor_rejected(self):
        check_fails("""
        class Odd@mode<managed> { attributor { return managed; } }
        class Main { void main() { } }
        """, "not dynamic")


class TestMCase:
    def test_mcase_field_implicit_elimination(self):
        check(DYN_SITE + """
        class Main {
            void main() {
                Site ds = new Site(10);
                Site s = snapshot ds;
                int d = s.depth;
            }
        }
        """)

    def test_mcase_elim_on_dynamic_rejected(self):
        check_fails(DYN_SITE + """
        class Main {
            void main() { Site ds = new Site(10); int d = ds.depth; }
        }
        """, "snapshot")

    def test_mselect_explicit(self):
        check(DYN_SITE + """
        class Main {
            void main() {
                Site ds = new Site(10);
                int d = mselect(ds.depth, managed);
            }
        }
        """)

    def test_mcase_coverage_required(self):
        check_fails("""
        class Main {
            void main() { mcase<int> x = mcase{ managed: 1; }; }
        }
        """, "does not cover")

    def test_mcase_default_satisfies_coverage(self):
        check("""
        class Main {
            void main() {
                mcase<int> x = mcase{ managed: 1; default: 0; };
            }
        }
        """)

    def test_mcase_duplicate_branch(self):
        check_fails("""
        class Main {
            void main() {
                mcase<int> x = mcase{ managed: 1; managed: 2; default: 0; };
            }
        }
        """, "duplicate")

    def test_mcase_unknown_mode(self):
        check_fails("""
        class Main {
            void main() { mcase<int> x = mcase{ warp_speed: 1; }; }
        }
        """, "not a declared mode")

    def test_mcase_branch_type_mismatch(self):
        check_fails("""
        class Main {
            void main() {
                mcase<int> x = mcase{ energy_saver: 1; managed: "two";
                                      full_throttle: 3; };
            }
        }
        """, "not assignable")

    def test_mcase_assignment_keeps_raw(self):
        check("""
        class Holder@mode<X> {
            mcase<int> setting = mcase{ energy_saver: 1; managed: 2;
                                        full_throttle: 3; };
            void replace() {
                setting = mcase{ energy_saver: 10; managed: 20;
                                 full_throttle: 30; };
            }
        }
        class Main { void main() { } }
        """)

    def test_mselect_on_non_mcase(self):
        check_fails("""
        class Main { void main() { int x = mselect(3, managed); } }
        """, "mselect requires")


#: A dynamic class whose attributor eliminates its own mode case:
#: ``{elim}`` is filled with one elimination statement.
ATTRIBUTOR_ELIM = MODES + """class Agent@mode<?X> {
    mcase<int> level = mcase{ energy_saver: 1; managed: 2; full_throttle: 3; };
    attributor { {elim} return managed; }
    Agent() { }
}
class Main {
    void main() {
        Agent da = new Agent@mode<?>();
        Agent a = snapshot da;
    }
}
"""

DYNAMIC_ELIM = ("cannot eliminate a mode case against a dynamic mode; "
                "snapshot the enclosing object first")


class TestEliminationInAttributors:
    """An attributor runs before its object has a mode, so no
    elimination there may read the dynamic mode variable: the explicit
    ``mselect(level, X)`` is rejected at check time, at the
    ``mselect``, as the implicit read ``int v = level;`` is."""

    @pytest.mark.parametrize("elim, column", [
        ("int v = mselect(level, X);", 26),
        ("int v = level;", 26),
    ])
    def test_rejected_at_the_elimination(self, elim, column):
        source = ATTRIBUTOR_ELIM.replace("{elim}", elim)
        with pytest.raises(EntTypeError) as info:
            check_program(source, "agent.ent")
        assert str(info.value) == f"agent.ent:4:{column}: {DYNAMIC_ELIM}"

    def test_static_mode_variable_allowed(self):
        check_program(ATTRIBUTOR_ELIM.replace(
            "{elim}", "int v = mselect(level, managed);"))
        check_program(ATTRIBUTOR_ELIM.replace(
            "Agent@mode<?X>", "Agent@mode<?X, Y>").replace(
            "Agent@mode<?>", "Agent@mode<?, managed>").replace(
            "{elim}", "int v = mselect(level, Y);"))

    @pytest.mark.parametrize("engine", ["walk", "vm", "jit"])
    def test_run_stops_at_check(self, engine, tmp_path, capsys):
        path = tmp_path / "agent.ent"
        path.write_text(ATTRIBUTOR_ELIM.replace(
            "{elim}", "int v = mselect(level, X);"))
        assert main(["run", str(path), "--engine", engine]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:4:26: {DYNAMIC_ELIM}\n"


class TestMainModeParameters:
    """``boot(P) = cl(⊤, mbody(main, Main⟨⊤⟩))`` binds one mode, so
    ``Main`` may take one mode parameter (a second is rejected: see
    ``test_cli.TestErrorsNameTheFile``)."""

    def test_one_mode_parameter_is_the_boot_mode(self):
        check("""
class Main@mode<X> {
    void main() {
        mcase<int> m = mcase{ energy_saver: 1; default: 7; };
        Sys.print(mselect(m, X));
    }
}
""")


class TestMethodLevelModes:
    def test_override_blocks_low_sender(self):
        check_fails(DYN_SITE.replace(
            "int crawl() { return resources.size() * depth; }",
            "int crawl() { return 1; } "
            "@mode<full_throttle> int mediaCrawl() { return 2; }") + """
        class Low@mode<energy_saver> {
            int go(Site s) { return s.mediaCrawl(); }
        }
        class Main { void main() { } }
        """, "waterfall", WaterfallError)

    def test_override_allows_high_sender_on_dynamic_receiver(self):
        check(DYN_SITE.replace(
            "int crawl() { return resources.size() * depth; }",
            "int crawl() { return 1; } "
            "@mode<full_throttle> int mediaCrawl() { return 2; }") + """
        class High@mode<full_throttle> {
            int go(Site s) { return s.mediaCrawl(); }
        }
        class Main { void main() { } }
        """)

    def test_generic_method_inference(self):
        check("""
        class Data@mode<X> { int size; }
        class Tool {
            @mode<X> int process(Data@mode<X> d) { return d.size; }
        }
        class Main {
            void main() {
                Tool t = new Tool();
                Data@mode<energy_saver> d = new Data@mode<energy_saver>();
                int x = t.process(d);
            }
        }
        """)

    def test_generic_method_inference_failure(self):
        check_fails("""
        class Tool {
            @mode<X> int process(int n) { return n; }
        }
        class Main {
            void main() { Tool t = new Tool(); int x = t.process(3); }
        }
        """, "cannot infer")

    def test_method_attributor_requires_dynamic_annotation(self):
        check_fails("""
        class Tool {
            int f() attributor { return managed; } { return 1; }
        }
        class Main { void main() { } }
        """, "attributor")

    def test_method_attributor_wellformed(self):
        check("""
        class Tool {
            @mode<?X> int f(int n)
            attributor {
                if (n > 10) { return full_throttle; }
                return energy_saver;
            }
            { return n; }
        }
        class Main {
            void main() { Tool t = new Tool(); int x = t.f(3); }
        }
        """)

    def test_dynamic_method_annotation_without_attributor(self):
        check_fails("""
        class Tool { @mode<?X> int f() { return 1; } }
        class Main { void main() { } }
        """, "no attributor")


class TestAttributorRules:
    def test_attributor_must_return_mode_on_all_paths(self):
        check_fails("""
        class D@mode<?> {
            int n;
            attributor { if (n > 1) { return managed; } }
        }
        class Main { void main() { } }
        """, "must return a mode")

    def test_attributor_may_read_fields(self):
        check("""
        class D@mode<?> {
            int n;
            attributor {
                if (n > 10) { return full_throttle; }
                return energy_saver;
            }
        }
        class Main { void main() { } }
        """)

    def test_attributor_cannot_message_mode_carrying_objects(self):
        check_fails("""
        class Helper@mode<managed> { int f() { return 1; } }
        class D@mode<?> {
            Helper h;
            attributor {
                if (h.f() > 0) { return managed; }
                return energy_saver;
            }
        }
        class Main { void main() { } }
        """, "attributor", WaterfallError)

    def test_attributor_may_call_natives(self):
        check("""
        class D@mode<?> {
            attributor {
                if (Ext.battery() >= 0.5) { return managed; }
                return energy_saver;
            }
        }
        class Main { void main() { } }
        """)


class TestNonEquivocation:
    def test_mode_args_invariant(self):
        # C<es> is not assignable to C<ft>: aliasing cannot equivocate.
        check_fails("""
        class Box@mode<X> { }
        class Main {
            void main() {
                Box@mode<energy_saver> a = new Box@mode<energy_saver>();
                Box@mode<full_throttle> b = a;
            }
        }
        """, "not assignable")

    def test_same_mode_assignable(self):
        check("""
        class Box@mode<X> { }
        class Main {
            void main() {
                Box@mode<managed> a = new Box@mode<managed>();
                Box@mode<managed> b = a;
            }
        }
        """)

    def test_subclass_mode_passthrough(self):
        check("""
        class Base@mode<X> { int f() { return 1; } }
        class Derived@mode<X> extends Base@mode<X> { }
        class Main {
            void main() {
                Base@mode<managed> b = new Derived@mode<managed>();
                int x = b.f();
            }
        }
        """)
