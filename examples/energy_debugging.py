#!/usr/bin/env python3
"""Energy debugging with ENT's mixed type system (paper section 6.3).

Walks through the paper's debuggability story on the running example:

1. The programmer forgets the ``[_, X]`` bound on the Site snapshot —
   the *compile-time* type checker rejects the program, pointing at the
   waterfall violation at ``s.crawl()``.
2. They add the bound — now the program compiles, and at *run time* the
   bounded snapshot throws ``EnergyException`` exactly when a large
   Site shows up under low battery ("Why is a large Site crawled with
   low battery?").
3. They add the handler and adapt — the exception becomes the hook for
   scaling the computation down, and a jRAPL-style meter confirms the
   Site really was the energy hotspot.

Run:  python examples/energy_debugging.py
"""

from repro.core.errors import EnergyException, WaterfallError
from repro.lang import check_program, run_source
from repro.platform import make_platform

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"

SITE_AND_AGENT = """
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
    int crawl() {
        foreach (int r : resources) { Sys.work(depth * 8); }
        return resources.size();
    }
}

class Agent@mode<?X> {
    attributor {
        if (Ext.battery() >= 0.75) { return full_throttle; }
        if (Ext.battery() >= 0.50) { return managed; }
        return energy_saver;
    }
    Agent() { }
    int work(int n) {
        Site ds = new Site@mode<?>(n);
        Site s = SNAPSHOT;
        return s.crawl();
    }
}
"""

MAIN = """
class Main {
    void main() {
        Agent a = snapshot (new Agent@mode<?>());
        Sys.print("crawled " + a.work(500));
    }
}
"""


def step1_forgotten_bound() -> None:
    print("Step 1: snapshot without a bound "
          "-> compile-time waterfall error")
    source = (MODES
              + SITE_AND_AGENT.replace("SNAPSHOT", "snapshot ds")
              + MAIN)
    try:
        check_program(source)
        print("  (unexpectedly compiled!)")
    except WaterfallError as exc:
        print(f"  compiler: {exc}")
    print("  -> the unbounded snapshot's mode is unconstrained, so the")
    print("     Agent (mode X) may not message the Site. Adding [_, X]")
    print("     acknowledges the Site as a potential energy hotspot.\n")


def step2_runtime_exception() -> None:
    print("Step 2: bounded snapshot -> run-time EnergyException "
          "under low battery")
    source = (MODES
              + SITE_AND_AGENT.replace("SNAPSHOT", "snapshot ds [_, X]")
              + MAIN)
    platform = make_platform("A", seed=3)
    platform.battery.set_fraction(0.55)   # managed territory
    try:
        run_source(source, platform=platform)
        print("  (no exception?)")
    except EnergyException as exc:
        print(f"  runtime: {exc}")
    print("  -> 'Why is a large Site crawled with low battery?'\n")


def step3_adapt_and_measure() -> None:
    print("Step 3: catch, adapt, and confirm the hotspot with a meter")
    handler_main = """
    class Main {
        void main() {
            Agent a = snapshot (new Agent@mode<?>());
            try {
                Sys.print("crawled " + a.work(500));
            } catch (EnergyException e) {
                Sys.print("adapting: crawl the first 50 only");
                Sys.print("crawled " + a.work(50));
            }
        }
    }
    """
    source = (MODES
              + SITE_AND_AGENT.replace("SNAPSHOT", "snapshot ds [_, X]")
              + handler_main)
    for battery, label in ((0.9, "full battery"), (0.55, "low battery")):
        platform = make_platform("A", seed=3)
        platform.battery.set_fraction(battery)
        meter = platform.meter()
        meter.begin()
        interp = run_source(source, platform=platform)
        joules = meter.end()
        print(f"  {label}: {' / '.join(interp.output)}")
        print(f"    jRAPL window: {joules:.1f} J")
    print("  -> the big Site is confirmed as the hotspot: adapting it")
    print("     is what brings the low-battery energy down.")


if __name__ == "__main__":
    step1_forgotten_bound()
    step2_runtime_exception()
    step3_adapt_and_measure()
