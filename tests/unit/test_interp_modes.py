"""Interpreter unit tests for ENT semantics (paper section 4.2):
snapshot/check/copy, lazy copying, mode-case elimination, dynamic
waterfall, silent mode, and method-level attributors."""

import pytest

from repro.cli import main as cli_main
from repro.core.errors import EnergyException, EntRuntimeError
from repro.core.modes import Mode
from repro.lang.engines import ENGINES
from repro.lang.interp import (Interpreter, InterpOptions, NullPlatform,
                               run_source)
from repro.lang.typechecker import check_program

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"

SITE = """
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
    int crawl() { return depth; }
}
"""


class _Battery(NullPlatform):
    def __init__(self, level):
        super().__init__()
        self.level = level

    def battery_fraction(self):
        return self.level


def run(body, extra_classes=SITE, **kwargs):
    source = (MODES + extra_classes
              + "class Main { void main() { " + body + " } }")
    return run_source(source, **kwargs)


class TestSnapshotSemantics:
    def test_attributor_decides_mode(self):
        interp = run("Site ds = new Site(100); Site s = snapshot ds;"
                     "Sys.print(s.crawl());")
        assert interp.output == ["2"]  # managed -> depth 2

    def test_snapshot_mode_by_size(self):
        for count, depth in ((10, "1"), (100, "2"), (300, "3")):
            interp = run(f"Site ds = new Site({count});"
                         "Site s = snapshot ds; Sys.print(s.crawl());")
            assert interp.output == [depth]

    def test_bad_check_raises(self):
        with pytest.raises(EnergyException):
            run("Site ds = new Site(300);"
                "Site s = snapshot ds [_, managed];")

    def test_lower_bound_check(self):
        with pytest.raises(EnergyException):
            run("Site ds = new Site(10);"
                "Site s = snapshot ds [managed, _];")

    def test_within_bounds(self):
        interp = run("Site ds = new Site(100);"
                     "Site s = snapshot ds [managed, managed];"
                     "Sys.print(s.crawl());")
        assert interp.output == ["2"]

    def test_exception_catchable(self):
        interp = run("""
            Site ds = new Site(300);
            try {
                Site s = snapshot ds [_, managed];
                Sys.print("no exception");
            } catch (EnergyException e) {
                Sys.print("caught");
            }
        """)
        assert interp.output == ["caught"]
        assert interp.stats.energy_exceptions == 1

    def test_lazy_copy_first_snapshot_tags_in_place(self):
        interp = run("Site ds = new Site(100); Site s = snapshot ds;")
        assert interp.stats.lazy_tags == 1
        assert interp.stats.copies == 0

    def test_second_snapshot_copies(self):
        interp = run("Site ds = new Site(100);"
                     "Site a = snapshot ds; Site b = snapshot ds;")
        assert interp.stats.lazy_tags == 1
        assert interp.stats.copies == 1

    def test_eager_copy_option(self):
        interp = run("Site ds = new Site(100); Site s = snapshot ds;",
                     options=InterpOptions(lazy_copy=False))
        assert interp.stats.copies == 1
        assert interp.stats.lazy_tags == 0

    @pytest.mark.parametrize("lazy, tags, copies",
                             [(True, 1, 299), (False, 0, 300)],
                             ids=["lazy", "eager"])
    def test_copy_counts_on_a_300_snapshot_loop(self, lazy, tags, copies):
        """Lazy copying tags the first snapshot in place and copies
        from the second on: one physical copy fewer per object, and
        the same output."""
        interp = run("""
            Site ds = new Site(300);
            int total = 0;
            int i = 0;
            while (i < 300) {
                Site s = snapshot ds;
                total = total + s.depth;
                i = i + 1;
            }
            Sys.print(total);
        """, options=InterpOptions(lazy_copy=lazy))
        assert interp.output == ["900"]
        assert interp.stats.lazy_tags == tags
        assert interp.stats.copies == copies

    def test_copy_is_shallow(self):
        # The snapshot shares field *values* with the original: adding
        # through the copy's list is visible through the original.
        interp = run("""
            Site ds = new Site(100);
            Site a = snapshot ds;
            Site b = snapshot ds;
            b.resources.add(999);
            Sys.print(a.resources.size());
        """, options=InterpOptions(lazy_copy=False))
        assert interp.output == ["101"]

    def test_monotonic_no_equivocation(self):
        # Re-snapshotting after growth: the old copy keeps its mode,
        # the new copy observes the new one — aliases never disagree
        # about one object's mode.
        interp = run("""
            Site ds = new Site(100);
            Site a = snapshot ds;
            int i = 0;
            while (i < 200) { ds.resources.add(i); i = i + 1; }
            Site b = snapshot ds;
            Sys.print(a.crawl());
            Sys.print(b.crawl());
        """)
        assert interp.output == ["2", "3"]

    def test_on_snapshot_hook(self):
        events = []
        source = (MODES + SITE +
                  "class Main { void main() {"
                  "Site ds = new Site(300); Site s = snapshot ds;"
                  "} }")
        from repro.lang.typechecker import check_program
        from repro.lang.interp import Interpreter
        interp = Interpreter(check_program(source))
        interp.on_snapshot = lambda *args: events.append(args)
        interp.run()
        assert len(events) == 1
        assert events[0][1] == Mode("full_throttle")


class TestModeCases:
    def test_elimination_uses_field_owner_mode(self):
        # r.depth eliminates against r's mode, not the caller's.
        interp = run("""
            Site ds = new Site(300);
            Site s = snapshot ds;
            Sys.print(s.depth);
        """)
        assert interp.output == ["3"]

    def test_mselect_explicit(self):
        interp = run("Site ds = new Site(10);"
                     "Sys.print(mselect(ds.depth, full_throttle));")
        assert interp.output == ["3"]

    def test_default_branch(self):
        interp = run("""
            mcase<int> x = mcase{ managed: 2; default: 9; };
            Sys.print(mselect(x, managed));
            Sys.print(mselect(x, energy_saver));
        """, extra_classes="")
        assert interp.output == ["2", "9"]

    def test_mcase_stored_raw_in_locals(self):
        interp = run("""
            mcase<int> x = mcase{ energy_saver: 1; managed: 2;
                                  full_throttle: 3; };
            Sys.print(mselect(x, energy_saver));
        """, extra_classes="")
        assert interp.output == ["1"]

    def test_elim_stat_counted(self):
        interp = run("Site ds = new Site(100); Site s = snapshot ds;"
                     "int d = s.depth;")
        assert interp.stats.mcase_elims >= 1


class TestDynamicWaterfall:
    AGENT = SITE + """
    class Agent@mode<?X> {
        attributor {
            if (Ext.battery() >= 0.75) { return full_throttle; }
            if (Ext.battery() >= 0.50) { return managed; }
            return energy_saver;
        }
        Agent() { }
        int work(int n) {
            Site ds = new Site(n);
            Site s = snapshot ds [_, X];
            return s.crawl();
        }
    }
    """

    def _crawl(self, battery, count, **kwargs):
        return run(
            f"Agent da = new Agent(); Agent a = snapshot da;"
            f"Sys.print(a.work({count}));",
            extra_classes=self.AGENT,
            platform=_Battery(battery), **kwargs)

    def test_high_battery_big_site_ok(self):
        assert self._crawl(0.9, 300).output == ["3"]

    def test_low_battery_big_site_throws(self):
        with pytest.raises(EnergyException):
            self._crawl(0.6, 300)

    def test_low_battery_small_site_ok(self):
        assert self._crawl(0.6, 100).output == ["2"]

    def test_silent_mode_never_throws(self):
        interp = self._crawl(0.6, 300, options=InterpOptions(silent=True))
        assert interp.output == ["3"]
        assert interp.stats.energy_exceptions == 0

    def test_on_message_dfall_holds(self):
        checks = []
        source = (MODES + self.AGENT +
                  "class Main { void main() {"
                  "Agent da = new Agent(); Agent a = snapshot da;"
                  "Sys.print(a.work(100)); } }")
        from repro.lang.typechecker import check_program
        from repro.lang.interp import Interpreter
        interp = Interpreter(check_program(source),
                             platform=_Battery(0.9))
        interp.on_message = (
            lambda guard, sender, holds: checks.append(holds))
        interp.run()
        assert checks and all(checks)

    def test_baseline_mode_skips_bookkeeping(self):
        interp = self._crawl(0.6, 300,
                             options=InterpOptions(baseline=True))
        # Behaviour preserved (attributor still picks the mode) ...
        assert interp.output == ["3"]
        # ... but no checks or copies happened.
        assert interp.stats.bound_checks == 0
        assert interp.stats.copies == 0


class TestMethodAttributors:
    TOOL = """
    class Tool {
        @mode<?X> int process(int n)
        attributor {
            if (n > 10) { return full_throttle; }
            return energy_saver;
        }
        { return n * 2; }
    }
    """

    def test_method_attributor_runs(self):
        interp = run("Tool t = new Tool(); Sys.print(t.process(3));",
                     extra_classes=self.TOOL)
        assert interp.output == ["6"]

    def test_method_attributor_guards_waterfall(self):
        # A managed-mode caller invoking a method attributed to
        # full_throttle violates the runtime waterfall.
        source = MODES + self.TOOL + """
        class Caller@mode<managed> {
            int go(Tool t) { return t.process(50); }
        }
        class Main {
            void main() {
                Caller c = new Caller();
                Tool t = new Tool();
                Sys.print(c.go(t));
            }
        }
        """
        with pytest.raises(EnergyException):
            run_source(source)

    def test_method_attributor_low_result_allowed(self):
        source = MODES + self.TOOL + """
        class Caller@mode<managed> {
            int go(Tool t) { return t.process(5); }
        }
        class Main {
            void main() {
                Caller c = new Caller();
                Tool t = new Tool();
                Sys.print(c.go(t));
            }
        }
        """
        assert run_source(source).output == ["10"]


class TestGenericModes:
    def test_runtime_generic_inference(self):
        source = MODES + """
        class Data@mode<X> {
            mcase<int> level = mcase{ energy_saver: 1; managed: 2;
                                      full_throttle: 3; };
        }
        class Tool {
            @mode<X> int probe(Data@mode<X> d) { return d.level; }
        }
        class Main {
            void main() {
                Tool t = new Tool();
                Data@mode<managed> d = new Data@mode<managed>();
                Sys.print(t.probe(d));
            }
        }
        """
        assert run_source(source).output == ["2"]

    def test_co_adaptation_listing2(self):
        """Listing 2's co-adaptation: rules adopt the agent's mode."""
        source = MODES + """
        class DepthRule@mode<X> {
            mcase<int> depth = mcase{ energy_saver: 1; managed: 2;
                                      full_throttle: 3; };
        }
        class Agent@mode<?X> {
            attributor {
                if (Ext.battery() >= 0.75) { return full_throttle; }
                if (Ext.battery() >= 0.50) { return managed; }
                return energy_saver;
            }
            Agent() { }
            int work() {
                DepthRule@mode<X> r = new DepthRule@mode<X>();
                return r.depth;
            }
        }
        class Main {
            void main() {
                Agent da = new Agent();
                Agent a = snapshot da;
                Sys.print(a.work());
            }
        }
        """
        interp = run_source(source, platform=_Battery(0.6))
        assert interp.output == ["2"]
        interp = run_source(source, platform=_Battery(0.95))
        assert interp.output == ["3"]


#: Programs whose typed result needs every engine to eliminate exactly
#: where the typechecker marked ``implicit_elim``.  Each ``Agent`` runs
#: at a concrete mode; ``Main`` runs at ⊤, which no mode case has a
#: branch for.
AGENT = """
class Agent@mode<{mode}> {{
    mcase<int> level = mcase{{ energy_saver: 1; managed: 2;
                              full_throttle: 3; }};
    Agent() {{ }}
    {methods}
}}
"""

#: name -> (Agent's mode, its methods, extra classes, Main's body, the
#: output the typing rule gives).
TYPED_ELIMINATION = {
    # A method declared ``mcase<int>`` hands its mode case back raw.
    "R1": ("full_throttle", "mcase<int> getLevel() { return level; }", "",
           "Sys.print(mselect(new Agent().getLevel(), energy_saver));",
           "1"),
    # ... and the caller eliminates it at the caller's mode.
    "R2": ("energy_saver", "mcase<int> getLevel() { return level; }",
           """
class Client@mode<full_throttle> {
    Client() { }
    int use() { return new Agent().getLevel() + 0; }
}
""", "Sys.print(new Client().use());", "3"),
    # Assignments to mode-case-typed locals and fields stay raw.
    "R3": ("full_throttle",
           "int pick() { mcase<int> m = level; m = level; "
           "return mselect(m, energy_saver); }", "",
           "Agent a = new Agent(); Sys.print(a.pick());", "1"),
    "R4": ("full_throttle",
           "int reset() { level = mcase{ energy_saver: 7; managed: 8; "
           "full_throttle: 9; }; return mselect(level, energy_saver); }",
           "", "Agent a = new Agent(); Sys.print(a.reset());", "7"),
    # A mode-case local read as an operand or a return value is
    # eliminated at the frame's mode.
    "R5": ("full_throttle",
           "int f() { mcase<int> m = level; int x = m + 1; return x; }",
           "", "Agent a = new Agent(); Sys.print(a.f());", "4"),
    "R6": ("full_throttle",
           "int g() { mcase<int> m = level; return m; }", "",
           "Agent a = new Agent(); Sys.print(a.g());", "3"),
    # A constructor argument to a mode-case-typed parameter stays raw.
    "ctor": ("full_throttle",
             "int wrap() { Holder h = new Holder(level); "
             "return h.pick(); }", """
class Holder@mode<full_throttle> {
    mcase<int> m;
    Holder(mcase<int> m) { this.m = m; }
    int pick() { return mselect(m, energy_saver); }
}
""", "Agent a = new Agent(); Sys.print(a.wrap());", "1"),
}


def typed_elimination_source(name):
    mode, methods, extra, body, _ = TYPED_ELIMINATION[name]
    return (MODES + AGENT.format(mode=mode, methods=methods) + extra
            + "class Main { void main() { " + body + " } }\n")


class TestTypedElimination:
    """Every engine eliminates exactly where the typechecker marked
    ``implicit_elim``, so each program prints the typed result."""

    @pytest.mark.parametrize("checks", ["full", "transient"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(TYPED_ELIMINATION))
    def test_cli_prints_the_typed_result(self, name, engine, checks,
                                         tmp_path, capsys):
        path = tmp_path / f"{name}.ent"
        path.write_text(typed_elimination_source(name))
        assert cli_main(["check", str(path)]) == 0
        assert cli_main(["run", str(path), "--engine", engine,
                         "--checks", checks]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == TYPED_ELIMINATION[name][4]

    @pytest.mark.parametrize("checks", ["full", "transient"])
    @pytest.mark.parametrize("name", sorted(TYPED_ELIMINATION))
    def test_compiled_code_agrees(self, name, checks):
        """The JIT at thresholds of 1: every body runs as emitted
        Python."""
        interp = Interpreter(check_program(typed_elimination_source(name)),
                             options=InterpOptions(engine="jit",
                                                   checks=checks))
        interp._vm._hot_call = 1
        interp._vm._hot_loop = 1
        interp.run()
        assert interp.output == [TYPED_ELIMINATION[name][4]]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_call_result_eliminates_at_the_callers_mode(self, engine):
        """Inside ``Main`` the caller's mode is ⊤: the mode case a
        method returns has no branch for it."""
        source = (MODES + AGENT.format(
            mode="full_throttle",
            methods="mcase<int> getLevel() { return level; }")
            + "class Main { void main() { Agent a = new Agent(); "
              "int v = a.getLevel(); Sys.print(v); } }")
        interp = Interpreter(check_program(source),
                             options=InterpOptions(engine=engine))
        with pytest.raises(EntRuntimeError,
                           match=r"no branch for mode \$top"):
            interp.run()
