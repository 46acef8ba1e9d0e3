#!/usr/bin/env python3
"""The paper's running example (Listing 1): an energy-aware web crawler.

An ``Agent`` crawls ``Site``s in a discover-check-crawl loop.  Both are
*dynamic* ENT classes: the Agent's attributor picks its mode from the
battery level (and its configuration rules), the Site's from its
resource count.  The bounded snapshot ``snapshot ds [_, X]`` is where
the mixed type system earns its keep: if a heavyweight Site shows up
while the Agent is in a low-energy mode, a *bad check* raises the
``EnergyException``, and the handler scales quality of service down
instead of silently burning battery.

Run:  python examples/crawler.py
"""

from repro.lang import InterpOptions, run_source
from repro.platform.systems import make_platform

CRAWLER = """
modes { energy_saver <= managed; managed <= full_throttle; }

class Rule {
    boolean localOnly;
    Rule(boolean localOnly) { this.localOnly = localOnly; }
}

class Site@mode<?X> {
    List resources;
    int depthUsed;

    attributor {
        if (resources.size() > 200) { return full_throttle; }
        if (resources.size() > 50) { return managed; }
        return energy_saver;
    }

    Site(int resourceCount) {
        this.resources = new List();
        int i = 0;
        while (i < resourceCount) {
            resources.add("res-" + i);
            i = i + 1;
        }
        this.depthUsed = 0;
    }

    mcase<int> depth = mcase{
        energy_saver: 1;
        managed: 2;
        full_throttle: 3;
    };

    List crawl() {
        List found = new List();
        int d = depth;   // mode case eliminated on this Site's mode
        this.depthUsed = d;
        foreach (String r : resources) {
            Sys.work(d * 10);
            found.add(r);
        }
        return found;
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

    int work(int resourceCount) {
        Site ds = new Site@mode<?>(resourceCount);
        Site s = snapshot ds [_, X];   // bounded by the Agent's own mode
        List found = s.crawl();
        return found.size();
    }
}

class Main {
    void main() {
        Agent da = new Agent@mode<?>(false);
        Agent a = snapshot da;
        Sys.print("agent mode decided by attributor");
        int crawled = a.work(40);            // small site: fine anywhere
        Sys.print("small site crawled: " + crawled + " resources");
        int big = 0;
        try {
            big = a.work(500);               // huge site
            Sys.print("big site crawled: " + big + " resources");
        } catch (EnergyException e) {
            Sys.print("EnergyException: " + e);
            Sys.print("scaling down: crawling first 50 resources only");
            big = a.work(50);
            Sys.print("degraded crawl: " + big + " resources");
        }
    }
}
"""


def crawl_at_battery(battery: float) -> list:
    platform = make_platform("A")
    platform.battery.set_fraction(battery)
    interp = run_source(CRAWLER, platform=platform,
                        options=InterpOptions())
    return interp.output


def main() -> None:
    for battery in (0.9, 0.6, 0.3):
        print(f"=== battery at {battery:.0%} ===")
        for line in crawl_at_battery(battery):
            print(f"  {line}")
        print()


if __name__ == "__main__":
    main()
