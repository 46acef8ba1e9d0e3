"""Unit tests for the platform substrate: clock, battery, thermal, CPU,
meters, and the three systems."""

import math

import pytest

from repro.platform import (Battery, Cpu, EnergyLedger, INTEL_I5,
                            OndemandGovernor, PerformanceGovernor,
                            PI2_BCM2836, RaplMeter, SimClock, SystemA,
                            SystemB, SystemC, ThermalModel, WattsUpMeter,
                            make_platform)
from repro.platform.systems import platform_from_config, system_config


class TestClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_listener(self):
        clock = SimClock()
        events = []
        clock.subscribe(lambda start, dur: events.append((start, dur)))
        clock.advance(2.0)
        clock.advance(0.0)  # zero advance: no event
        assert events == [(0.0, 2.0)]


class TestBattery:
    def test_drain(self):
        battery = Battery(100.0)
        battery.drain(25.0)
        assert battery.fraction() == pytest.approx(0.75)

    def test_never_negative(self):
        battery = Battery(10.0)
        battery.drain(50.0)
        assert battery.fraction() == 0.0
        assert battery.empty

    def test_set_fraction(self):
        battery = Battery(100.0)
        battery.set_fraction(0.4)
        assert battery.fraction() == pytest.approx(0.4)

    def test_script_overrides_queries(self):
        battery = Battery(100.0)
        battery.use_script(lambda t: 0.9 - 0.1 * t)
        assert battery.fraction(0.0) == pytest.approx(0.9)
        assert battery.fraction(2.0) == pytest.approx(0.7)
        # Clamped to [0, 1].
        assert battery.fraction(100.0) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Battery(-5.0)
        with pytest.raises(ValueError):
            Battery(10.0, fraction=1.5)


class TestThermal:
    def test_steady_state(self):
        model = ThermalModel(ambient_c=35.0, r_th_c_per_w=1.2)
        assert model.steady_state(25.0) == pytest.approx(65.0)

    def test_heats_towards_steady(self):
        model = ThermalModel(ambient_c=35.0, r_th_c_per_w=1.2, tau_s=25.0)
        model.step(25.0, 10.0)
        assert 35.0 < model.temperature_c < 65.0
        model.step(25.0, 1000.0)
        assert model.temperature_c == pytest.approx(65.0, abs=0.01)

    def test_cools_when_idle(self):
        model = ThermalModel(ambient_c=35.0, initial_c=70.0)
        model.step(0.0, 5.0)
        assert model.temperature_c < 70.0

    def test_exact_exponential(self):
        model = ThermalModel(ambient_c=30.0, r_th_c_per_w=1.0, tau_s=10.0)
        model.step(20.0, 10.0)  # one time constant towards 50
        expected = 50.0 + (30.0 - 50.0) * math.exp(-1.0)
        assert model.temperature_c == pytest.approx(expected)

    def test_step_size_independence(self):
        a = ThermalModel(tau_s=20.0)
        b = ThermalModel(tau_s=20.0)
        a.step(20.0, 10.0)
        for _ in range(100):
            b.step(20.0, 0.1)
        assert a.temperature_c == pytest.approx(b.temperature_c)

    def test_time_to_reach(self):
        model = ThermalModel(ambient_c=35.0, r_th_c_per_w=1.2, tau_s=25.0)
        t = model.time_to_reach(25.0, 60.0)
        model.step(25.0, t)
        assert model.temperature_c == pytest.approx(60.0, abs=0.01)

    def test_time_to_reach_unreachable(self):
        model = ThermalModel(ambient_c=35.0, r_th_c_per_w=1.0)
        assert model.time_to_reach(5.0, 90.0) == math.inf


class TestCpu:
    def test_execute_duration(self):
        cpu = Cpu(INTEL_I5, governor="performance")
        duration, power = cpu.execute(12_000.0)  # 12e9 ops
        # 3 GHz * 4 ipc = 12e9 ops/s -> 1 second.
        assert duration == pytest.approx(1.0)
        assert power > INTEL_I5.idle_w

    def test_power_increases_with_level(self):
        assert INTEL_I5.busy_power(0) < INTEL_I5.busy_power(3)

    def test_ondemand_ramps_up(self):
        governor = OndemandGovernor(levels=4)
        assert governor.select_level() == 0
        governor.observe(True, 2.0)
        assert governor.select_level() == 3

    def test_ondemand_decays(self):
        governor = OndemandGovernor(levels=4)
        governor.observe(True, 2.0)
        governor.observe(False, 5.0)
        assert governor.select_level() < 3

    def test_performance_always_max(self):
        governor = PerformanceGovernor(levels=4)
        governor.observe(False, 100.0)
        assert governor.select_level() == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            INTEL_I5.__class__(name="bad", freqs_ghz=(2.0, 1.0),
                               voltages=(1.0, 1.0), ipc=1, idle_w=1,
                               dyn_coeff=1)

    def test_pi_slower_than_i5(self):
        assert (PI2_BCM2836.ops_per_second(PI2_BCM2836.levels - 1)
                < INTEL_I5.ops_per_second(INTEL_I5.levels - 1))


class TestMeters:
    def test_window(self):
        ledger = EnergyLedger()
        meter = RaplMeter(ledger)
        meter.noise_rel = 0.0
        meter.begin()
        ledger.add("cpu_j", 10.0)
        assert meter.end() == pytest.approx(10.0)

    def test_rapl_sees_only_cpu(self):
        ledger = EnergyLedger()
        meter = RaplMeter(ledger)
        meter.noise_rel = 0.0
        meter.begin()
        ledger.add("cpu_j", 10.0)
        ledger.add("peripheral_j", 5.0)
        assert meter.end() == pytest.approx(10.0)

    def test_wattsup_sees_everything(self):
        ledger = EnergyLedger()
        meter = WattsUpMeter(ledger)
        meter.noise_rel = 0.0
        meter.begin()
        ledger.add("cpu_j", 10.0)
        ledger.add("peripheral_j", 5.0)
        ledger.add("display_j", 1.0)
        assert meter.end() == pytest.approx(16.0)

    def test_unstarted_window_rejected(self):
        with pytest.raises(RuntimeError):
            RaplMeter(EnergyLedger()).end()

    def test_noise_is_seeded(self):
        import random
        ledger = EnergyLedger()
        ledger.add("cpu_j", 100.0)
        readings = []
        for _ in range(2):
            meter = RaplMeter(EnergyLedger(), rng=random.Random(3))
            meter.begin()
            meter._ledger.add("cpu_j", 100.0)
            readings.append(meter.end())
        assert readings[0] == readings[1]


class TestSystems:
    def test_factory(self):
        assert isinstance(make_platform("A"), SystemA)
        assert isinstance(make_platform("b"), SystemB)
        assert isinstance(make_platform("C"), SystemC)
        with pytest.raises(ValueError):
            make_platform("Z")

    def test_work_consumes_energy_and_time(self):
        platform = SystemA(seed=1)
        platform.cpu_work(1000.0)
        assert platform.now() > 0
        assert platform.energy_total_j() > 0

    def test_sleep_is_cheaper_than_work(self):
        busy = SystemA(seed=1)
        busy.cpu_work(12_000.0)
        duration = busy.now()
        idle = SystemA(seed=1)
        idle.sleep(duration)
        assert idle.energy_total_j() < busy.energy_total_j()

    def test_work_heats_sleep_cools(self):
        platform = SystemA(seed=1)
        for _ in range(20):
            platform.cpu_work(12_000.0)
        hot = platform.cpu_temperature()
        assert hot > 45.0
        platform.sleep(60.0)
        assert platform.cpu_temperature() < hot

    def test_battery_drains(self):
        platform = SystemB(seed=1, battery_fraction=1.0)
        platform.cpu_work(50_000.0)
        assert platform.battery_fraction() < 1.0

    def test_io_and_net_accounted(self):
        platform = SystemA(seed=1)
        platform.io_bytes(1.0e6)
        platform.net_bytes(1.0e6)
        assert platform.ledger.io_j > 0
        assert platform.ledger.net_j > 0
        # Network is slower than the SSD.
        assert platform.ledger.net_j > platform.ledger.io_j

    def test_peak_powers_sane(self):
        # Laptop package tens of watts; Pi and phone a few watts.
        assert 20 < INTEL_I5.max_power() < 45
        assert 2 < PI2_BCM2836.max_power() < 5

    def test_run_jitter_seeded(self):
        a1 = SystemA(seed=4)
        a2 = SystemA(seed=4)
        a1.cpu_work(1000.0)
        a2.cpu_work(1000.0)
        assert a1.now() == pytest.approx(a2.now())

    def test_run_jitter_varies_across_seeds(self):
        durations = set()
        for seed in range(6):
            platform = SystemA(seed=seed)
            platform.cpu_work(10_000.0)
            durations.add(round(platform.now(), 9))
        assert len(durations) > 1

    def test_temperature_trace_recorded(self):
        platform = SystemA(seed=1)
        platform.cpu_work(5000.0)
        assert len(platform.temperature_trace) > 1
        times = [t for t, _ in platform.temperature_trace]
        assert times == sorted(times)

    @pytest.mark.parametrize("system", ["A", "B", "C"])
    def test_trace_starts_at_the_systems_own_temperature(self, system):
        # Each system's thermal constants are in place before the
        # first sample, under both constructors (System C idles at a
        # 33 C ambient, not the 35 C default).
        for platform in (make_platform(system),
                         platform_from_config(system_config(system))):
            assert platform.temperature_trace[0] == \
                (0.0, platform.thermal.temperature_c)


class TestReran:
    def test_recording_script(self):
        from repro.platform import Recording
        rec = Recording.script([(1.0, "tap", "a"), (0.5, "type", "b")])
        assert len(rec) == 2
        assert rec.duration_s == pytest.approx(1.5)

    def test_replay_jitters_but_preserves_order(self):
        from repro.platform import Recording, ReranReplayer
        rec = Recording.script([(1.0, "tap", "a"), (1.0, "tap", "b")])
        platform = SystemC(seed=2)
        replayer = ReranReplayer(platform, seed=2)
        events = [e.payload for e in replayer.replay(rec)]
        assert events == ["a", "b"]
        assert platform.sleep_total_s > 0

    def test_replay_seeded(self):
        from repro.platform import Recording, ReranReplayer
        rec = Recording.script([(1.0, "tap", "a")] * 5)
        def total(seed):
            platform = SystemC(seed=1)
            list(ReranReplayer(platform, seed=seed).replay(rec))
            return platform.sleep_total_s
        assert total(3) == pytest.approx(total(3))
        assert total(3) != pytest.approx(total(4))
