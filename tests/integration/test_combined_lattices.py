"""A battery-aware *and* temperature-aware program in one lattice.

The E3 benchmarks restructure battery-aware programs to also regulate
temperature; in ENT the two concerns coexist as independent chains of
one mode lattice.  This test runs a combined program end-to-end on the
System A simulator: a battery-booted Agent processes work units, and a
temperature-attributed Sleeper duty-cycles the CPU in between.
"""

import pytest

from repro.lang import run_source
from repro.platform import make_platform

COMBINED = """
modes {
    energy_saver <= managed; managed <= full_throttle;
    overheating <= hot; hot <= safe;
}

class Sleeper@mode<?X> {
    attributor {
        double t = Ext.temperature();
        if (t < 60.0) { return safe; }
        if (t <= 65.0) { return hot; }
        return overheating;
    }
    Sleeper() { }
    mcase<int> intervalMs = mcase{
        overheating: 1000; hot: 250; safe: 0; default: 0;
    };
}

class Agent@mode<?X> {
    attributor {
        if (Ext.battery() >= 0.75) { return full_throttle; }
        if (Ext.battery() >= 0.50) { return managed; }
        return energy_saver;
    }
    Agent() { }
    mcase<int> unitsPerStep = mcase{
        energy_saver: 8000; managed: 16000; full_throttle: 25000;
        default: 8000;
    };
    int step() {
        Sys.work(unitsPerStep);
        return unitsPerStep;
    }
}

class Main {
    void main() {
        Agent a = snapshot (new Agent@mode<?>());
        Sleeper sleeper = new Sleeper@mode<?>();
        int sleeps = 0;
        int worked = 0;
        int i = 0;
        while (i < 30) {
            worked = worked + a.step();
            Sleeper s = snapshot sleeper;
            int ms = s.intervalMs;
            if (ms > 0) { Sys.sleep(ms); sleeps = sleeps + 1; }
            i = i + 1;
        }
        Sys.print("worked=" + worked);
        Sys.print("sleeps=" + sleeps);
    }
}
"""


class TestCombinedLattices:
    @pytest.fixture(scope="class")
    def high_battery(self):
        platform = make_platform("A", seed=5)
        platform.battery.set_fraction(0.95)
        from repro.lang import run_source as rs
        interp = rs(COMBINED, platform=platform)
        return interp, platform

    def test_runs_to_completion(self, high_battery):
        interp, _ = high_battery
        assert interp.output[0].startswith("worked=")

    def test_full_throttle_triggers_thermal_sleeps(self, high_battery):
        interp, platform = high_battery
        sleeps = int(interp.output[1].split("=")[1])
        assert sleeps > 0
        # Duty cycling keeps the die out of deep overheating.
        assert platform.cpu_temperature() < 68.0

    def test_low_battery_means_less_work_and_heat(self):
        def run(battery):
            platform = make_platform("A", seed=5)
            platform.battery.set_fraction(battery)
            interp = run_source(COMBINED, platform=platform)
            worked = int(interp.output[0].split("=")[1])
            return worked, platform.cpu_temperature(), \
                platform.energy_total_j()

        hi_work, hi_temp, hi_energy = run(0.95)
        lo_work, lo_temp, lo_energy = run(0.30)
        assert lo_work < hi_work
        assert lo_temp <= hi_temp + 0.5
        assert lo_energy < hi_energy

    def test_chains_stay_incomparable(self):
        from repro.lang import check_program
        checked = check_program(COMBINED)
        from repro.core.modes import Mode
        assert not checked.lattice.comparable(Mode("managed"),
                                              Mode("hot"))
