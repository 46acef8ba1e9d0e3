"""End-to-end tests of the paper's listings, written in ENT and run
through the full pipeline (lex -> parse -> typecheck -> interpret)."""

import pytest

from repro.core.errors import EnergyException, WaterfallError
from repro.lang import InterpOptions, check_program, run_source
from repro.lang.interp import NullPlatform

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"


class _Battery(NullPlatform):
    def __init__(self, level):
        super().__init__()
        self._level = level

    def battery_fraction(self):
        return self._level


#: Listing 1, adapted: the energy-aware web crawler.
LISTING1 = MODES + """
class Rule {
    boolean localOnly;
    Rule(boolean localOnly) { this.localOnly = localOnly; }
}

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
        while (i < n) { resources.add("r" + i); i = i + 1; }
    }
    mcase<int> depth = mcase{
        energy_saver: 1; managed: 2; full_throttle: 3;
    };
    int crawl() {
        int d = depth;
        foreach (String r : resources) { Sys.work(d); }
        return resources.size() * d;
    }
}

class Agent@mode<?X> {
    List rules;
    attributor {
        if (Ext.battery() >= 0.75) { return full_throttle; }
        foreach (Rule r : rules) {
            if (r.localOnly) { return full_throttle; }
        }
        if (Ext.battery() >= 0.50) { return managed; }
        return energy_saver;
    }
    Agent(boolean localConfig) {
        this.rules = new List();
        if (localConfig) { rules.add(new Rule(true)); }
    }
    int work(int n) {
        Site ds = new Site@mode<?>(n);
        Site s = snapshot ds [_, X];
        return s.crawl();
    }
}

class Main {
    void main() {
        Agent da = new Agent@mode<?>(false);
        Agent a = snapshot da;
        Sys.print("small=" + a.work(40));
        try {
            Sys.print("big=" + a.work(500));
        } catch (EnergyException e) {
            Sys.print("exception");
            Sys.print("degraded=" + a.work(50));
        }
    }
}
"""


class TestListing1:
    def test_high_battery_runs_everything(self):
        interp = run_source(LISTING1, platform=_Battery(0.9))
        assert interp.output == ["small=40", "big=1500"]

    def test_medium_battery_throws_and_degrades(self):
        # The small site attributes to energy_saver (depth 1) on its
        # own; the big site attributes full_throttle, which the managed
        # agent's bounded snapshot rejects.
        interp = run_source(LISTING1, platform=_Battery(0.6))
        assert interp.output == ["small=40", "exception", "degraded=50"]

    def test_low_battery(self):
        interp = run_source(LISTING1, platform=_Battery(0.3))
        assert interp.output == ["small=40", "exception", "degraded=50"]

    def test_config_rule_forces_full_throttle(self):
        # A local-only configuration boots full_throttle even on a low
        # battery — the configuration-dependent scenario of section 2.
        source = LISTING1.replace("new Agent@mode<?>(false)",
                                  "new Agent@mode<?>(true)")
        interp = run_source(source, platform=_Battery(0.3))
        assert interp.output == ["small=40", "big=1500"]

    def test_silent_burns_more_energy(self):
        ent = run_source(LISTING1, platform=_Battery(0.6))
        silent = run_source(LISTING1, platform=_Battery(0.6),
                            options=InterpOptions(silent=True))
        assert silent.platform.work_units > ent.platform.work_units

    def test_forgotten_bound_is_compile_error(self):
        """Section 6.3's debuggability scenario: dropping [_, X] from
        the snapshot makes the crawl a static waterfall violation."""
        source = LISTING1.replace("snapshot ds [_, X]", "snapshot ds")
        with pytest.raises(WaterfallError):
            check_program(source)


#: Listing 2, adapted: mode co-adaptation through generic modes.
LISTING2 = MODES + """
class Rule { }

class DepthRule@mode<X> extends Rule {
    mcase<int> depth = mcase{
        energy_saver: 1; managed: 2; full_throttle: 3;
    };
}

class MaxResourcesRule@mode<X> extends Rule {
    mcase<int> maxresources = mcase{
        energy_saver: 50; managed: 100; full_throttle: 200;
    };
}

class Site@mode<X> {
    int crawl(DepthRule@mode<X> r1, MaxResourcesRule@mode<X> r2) {
        return r1.depth * 1000 + r2.maxresources;
    }
}

class Agent@mode<?X> {
    attributor {
        if (Ext.battery() >= 0.75) { return full_throttle; }
        if (Ext.battery() >= 0.50) { return managed; }
        return energy_saver;
    }
    Agent() { }
    int work() {
        Site@mode<X> s = new Site@mode<X>();
        return s.crawl(new DepthRule@mode<X>(),
                       new MaxResourcesRule@mode<X>());
    }
}

class Main {
    void main() {
        Agent da = new Agent@mode<?>();
        Agent a = snapshot da;
        Sys.print(a.work());
    }
}
"""


class TestListing2:
    @pytest.mark.parametrize("battery,expected", [
        (0.9, "3200"), (0.6, "2100"), (0.3, "1050")])
    def test_co_adaptation(self, battery, expected):
        """Snapshotting the Agent co-adapts Site, DepthRule and
        MaxResourcesRule to the same mode."""
        interp = run_source(LISTING2, platform=_Battery(battery))
        assert interp.output == [expected]


#: Listing 3, adapted: method-level mode characterization.
LISTING3 = MODES + """
class Site@mode<?X> {
    List parsedimgs;
    attributor {
        if (parsedimgs.size() > 20) { return full_throttle; }
        if (parsedimgs.size() > 10) { return managed; }
        return energy_saver;
    }
    Site(int imgs) {
        this.parsedimgs = new List();
        int i = 0;
        while (i < imgs) { parsedimgs.add(i); i = i + 1; }
    }
    int crawl() { return 1; }
    @mode<full_throttle> int mediaCrawl() { return 2; }
}

class Agent@mode<?X> {
    attributor { return managed; }
    Agent() { }

    @mode<?Y> int saveImages(Site s)
    attributor {
        if (s.parsedimgs.size() > 20) { return full_throttle; }
        if (s.parsedimgs.size() > 10) { return managed; }
        return energy_saver;
    }
    {
        int written = 0;
        foreach (int i : s.parsedimgs) { written = written + 1; }
        return written;
    }
}

class Driver@mode<managed> {
    int save(Agent@mode<managed> a, Site s) { return a.saveImages(s); }
}

class Main {
    void main() {
        Agent da = new Agent@mode<?>();
        Agent@mode<managed> a = snapshot da [managed, managed];
        Driver d = new Driver();
        Site small = new Site@mode<?>(5);
        Sys.print(d.save(a, small));
        Site big = new Site@mode<?>(30);
        try { Sys.print(d.save(a, big)); }
        catch (EnergyException e) { Sys.print("too hot to save"); }
    }
}
"""


class TestListing3:
    def test_method_attributor_adapts(self):
        # Saving few images is cheap: allowed under a managed agent.
        # Saving many attributes the method full_throttle: the runtime
        # waterfall rejects it from the managed closure.
        interp = run_source(LISTING3)
        assert interp.output == ["5", "too hot to save"]

    def test_media_crawl_static_error_from_low_mode(self):
        source = LISTING3.replace(
            "class Main {",
            """
            class Low@mode<energy_saver> {
                int go(Site s) { return s.mediaCrawl(); }
            }
            class Main {""")
        with pytest.raises(WaterfallError):
            check_program(source)


class TestTemperatureProgram:
    """An E3-style temperature-casing program in the ENT language."""

    SOURCE = """
    modes { overheating <= hot; hot <= safe; }
    class Sleeper@mode<?X> {
        attributor {
            double t = Ext.temperature();
            if (t < 60.0) { return safe; }
            if (t <= 65.0) { return hot; }
            return overheating;
        }
        Sleeper() { }
        mcase<int> interval = mcase{
            overheating: 1000; hot: 250; safe: 0;
        };
    }
    class Main {
        void main() {
            int i = 0;
            while (i < 5) {
                Sys.work(1000);
                Sleeper ds = new Sleeper@mode<?>();
                Sleeper s = snapshot ds;
                int ms = s.interval;
                if (ms > 0) { Sys.sleep(ms); }
                i = i + 1;
            }
            Sys.print("done");
        }
    }
    """

    def test_runs_on_real_platform(self):
        from repro.platform import make_platform
        interp = run_source(self.SOURCE, platform=make_platform("A", seed=1))
        assert interp.output == ["done"]
        assert interp.stats.snapshots == 5
