"""Property-based tests over the platform models."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.platform import Battery, ThermalModel, make_platform
from repro.platform.cpu import INTEL_I5, OndemandGovernor

_power = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_duration = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


class TestThermalProperties:
    @given(_power, _duration)
    def test_bounded_by_ambient_and_steady(self, power, duration):
        model = ThermalModel(ambient_c=35.0)
        model.step(power, duration)
        lo = min(35.0, model.steady_state(power))
        hi = max(35.0, model.steady_state(power))
        assert lo - 1e-6 <= model.temperature_c <= hi + 1e-6

    @given(_power, _duration, _duration)
    def test_split_step_equals_single_step(self, power, d1, d2):
        a = ThermalModel()
        b = ThermalModel()
        a.step(power, d1 + d2)
        b.step(power, d1)
        b.step(power, d2)
        assert math.isclose(a.temperature_c, b.temperature_c,
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(_power, _power, _duration)
    def test_monotone_in_power(self, p1, p2, duration):
        assume(duration > 0)
        lo, hi = sorted((p1, p2))
        a = ThermalModel()
        b = ThermalModel()
        a.step(lo, duration)
        b.step(hi, duration)
        assert a.temperature_c <= b.temperature_c + 1e-9

    @given(_power, _duration)
    def test_approaches_steady_monotonically(self, power, duration):
        assume(duration > 0)
        model = ThermalModel()
        target = model.steady_state(power)
        before = abs(model.temperature_c - target)
        model.step(power, duration)
        after = abs(model.temperature_c - target)
        assert after <= before + 1e-9


class TestBatteryProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), max_size=20))
    def test_drain_monotone_and_bounded(self, drains):
        battery = Battery(1000.0)
        previous = battery.fraction()
        for amount in drains:
            battery.drain(amount)
            current = battery.fraction()
            assert 0.0 <= current <= previous
            previous = current

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_set_fraction_roundtrip(self, fraction):
        battery = Battery(500.0)
        battery.set_fraction(fraction)
        assert math.isclose(battery.fraction(), fraction, abs_tol=1e-12)


class TestGovernorProperties:
    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(min_value=0.01, max_value=5.0,
                                        allow_nan=False)),
                    max_size=30))
    def test_utilization_stays_in_unit_interval(self, events):
        governor = OndemandGovernor(levels=4)
        for busy, duration in events:
            governor.observe(busy, duration)
            assert 0.0 <= governor.utilization <= 1.0
            assert 0 <= governor.select_level() <= 3

    @given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_sustained_busy_reaches_top(self, duration):
        governor = OndemandGovernor(levels=4)
        for _ in range(20):
            governor.observe(True, duration)
        assert governor.select_level() == 3

    @given(st.floats(min_value=0.5, max_value=10.0, allow_nan=False))
    def test_sustained_idle_reaches_bottom(self, duration):
        governor = OndemandGovernor(levels=4)
        governor.observe(True, 5.0)
        for _ in range(30):
            governor.observe(False, duration)
        assert governor.select_level() == 0


class TestPlatformInvariants:
    @given(st.lists(st.sampled_from(["work", "io", "net", "sleep"]),
                    min_size=1, max_size=25),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_energy_time_battery_consistent(self, actions, seed):
        platform = make_platform("A", seed=seed)
        start_charge = platform.battery.charge_joules
        for action in actions:
            if action == "work":
                platform.cpu_work(500.0)
            elif action == "io":
                platform.io_bytes(1.0e5)
            elif action == "net":
                platform.net_bytes(1.0e5)
            else:
                platform.sleep(0.05)
        # Time moves forward; energy is non-negative; the battery
        # drained by exactly the ledger total.
        assert platform.now() > 0
        assert platform.energy_total_j() >= 0
        drained = start_charge - platform.battery.charge_joules
        assert math.isclose(drained, platform.energy_total_j(),
                            rel_tol=1e-6)

    @given(st.integers(min_value=0, max_value=50))
    def test_cpu_work_energy_scales_linearly_at_fixed_level(self, seed):
        a = make_platform("A", seed=seed, governor="performance")
        b = make_platform("A", seed=seed, governor="performance")
        a.cpu_work(1000.0)
        b.cpu_work(2000.0)
        assert math.isclose(b.ledger.cpu_j, 2 * a.ledger.cpu_j,
                            rel_tol=1e-6)

    def test_idle_power_below_busy_power(self):
        for level in range(INTEL_I5.levels):
            assert INTEL_I5.idle_power(level) < INTEL_I5.busy_power(level)

    def test_idle_power_monotone_in_level(self):
        idles = [INTEL_I5.idle_power(level)
                 for level in range(INTEL_I5.levels)]
        assert idles == sorted(idles)
