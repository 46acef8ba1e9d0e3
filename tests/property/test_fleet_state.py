"""Property tests for the fleet's platform reuse and seeding.

The fleet service rests on three refactors, each with a crisp
invariant this module exercises across seeds and systems:

* **Platform reuse** — ``Platform.reset`` is bit-equal to fresh
  construction, and every platform of a system shares its one
  :class:`PlatformConfig` row.
* **Embedded-runtime reuse** — ``EntRuntime.reset_device`` returns a
  shared runtime (one lattice, one set of instrumented classes) to its
  boot state, and those tables are shared across devices.
* **SplitMix seeding** — per-device parameter derivation is a pure
  function of ``(seed, index)``; streams pickle; no step of an episode
  ever constructs a fresh ``random.Random``.
"""

import pickle
import random

from repro.core.rng import SplitMix64, derive_seed, splitmix64
from repro.fleet import FleetSpec, device_params
from repro.fleet.device import DeviceApp, run_device
from repro.platform.meter import EnergyLedger
from repro.platform.systems import SYSTEMS, Platform, make_platform
from repro.runtime.embedded import EntRuntime

SEEDS = (0, 7, 991)


def _exercise(platform, rng):
    """A deterministic-from-rng mix of every platform op."""
    for _ in range(6):
        op = rng.below(5)
        if op == 0:
            platform.cpu_work(2.0 + rng.below(8))
        elif op == 1:
            platform.net_bytes(1.0e4 * (1 + rng.below(4)))
        elif op == 2:
            platform.io_bytes(5.0e4)
        elif op == 3:
            platform.sleep(0.01 * (1 + rng.below(5)))
        else:
            platform.battery.drain(0.5)


def _observe(platform):
    """A platform's observable state, as plain comparable data.

    Draws the next value from the platform RNG, so compare two
    platforms only after observing both the same number of times.
    """
    ledger = platform.ledger
    return (platform.clock.now,
            platform.battery.charge_joules,
            platform.battery.capacity_joules,
            platform.thermal.temperature_c,
            platform.cpu.current_level,
            platform.cpu.total_work_units,
            platform.sleep_total_s,
            tuple(getattr(ledger, component)
                  for component in EnergyLedger.COMPONENTS),
            list(platform.temperature_trace),
            platform.rng.random())


class TestPlatformStatePickle:
    def test_reset_is_bit_equal_to_fresh_construction(self):
        for system in SYSTEMS:
            for seed in SEEDS:
                config = SYSTEMS[system]
                fresh = Platform(config, seed=seed, battery_fraction=0.7)
                reused = Platform(config, seed=seed + 999,
                                  battery_fraction=0.1)
                _exercise(reused, SplitMix64(3))  # dirty it thoroughly
                reused.reset(seed, battery_fraction=0.7)
                assert _observe(reused) == _observe(fresh)
                _exercise(fresh, SplitMix64(5))
                _exercise(reused, SplitMix64(5))
                assert _observe(reused) == _observe(fresh)

    def test_shared_config_not_duplicated(self):
        # The immutable half really is shared: platforms built from one
        # config alias it and its CpuSpec (and the config is hashable,
        # so the fleet can key caches on it).
        config = SYSTEMS["B"]
        p1 = Platform(config)
        p2 = make_platform("B", seed=3)
        for platform in (p1, p2):
            assert platform.config is config
            assert platform.cpu.spec is config.cpu
        assert hash(config) == hash(SYSTEMS["B"])
        # Rows are plain data: each survives a pickle round trip (the
        # meter class pickles by reference).
        for row in SYSTEMS.values():
            clone = pickle.loads(pickle.dumps(row))
            assert clone == row
            assert hash(clone) == hash(row)


class TestEmbeddedDeviceStatePickle:
    def _runtime_with_agent(self, seed):
        platform = make_platform("A", seed=seed, battery_fraction=0.6)
        rt = EntRuntime.standard(platform)

        @rt.dynamic
        class Agent:
            def attributor(self):
                return ("full_throttle" if rt.ext.battery() >= 0.5
                        else "energy_saver")

            def work(self):
                return rt.ext.battery()

        return platform, rt, Agent

    def test_reset_device_restores_boot_state(self):
        platform, rt, agent_cls = self._runtime_with_agent(0)
        agent = rt.snapshot(agent_cls())
        with rt.booted(agent):
            agent.work()
        assert rt.stats.messages > 0
        rt.reset_device()
        assert rt.stats.as_dict() == EntRuntime.standard().stats.as_dict()
        assert rt.current_mode.name == "$top"

    def test_device_app_shares_tables_across_devices(self):
        # One DeviceApp per runtime: the instrumented classes and the
        # per-archetype mode-case tables are built once and reused for
        # every device seated on the runtime.
        spec = FleetSpec(devices=4, seed=1)
        rt = EntRuntime.standard()
        app = DeviceApp(rt, spec)
        plans_before = {name: case for name, case in app.plans.items()}
        platform = Platform(SYSTEMS["A"])
        for index in range(spec.devices):
            params = device_params(spec, index)
            platform.reset(params.platform_seed, params.start_fraction,
                           spec.battery_scale)
            rt.reset_device()
            rt.bind_platform(platform)
            run_device(platform, rt, app, params, steps=4)
        for name, case in app.plans.items():
            assert case is plans_before[name]


class TestSplitMixSeeding:
    def test_finalizer_reference_values(self):
        # splitmix64 is a fixed public algorithm; pin a few outputs so
        # a refactor cannot silently change every derived seed.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_derivation_is_pure(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)
        assert derive_seed(3, 1) != derive_seed(4, 1)

    def test_stream_pickles_and_resumes(self):
        stream = SplitMix64(derive_seed(9, 1))
        [stream.next_u64() for _ in range(5)]
        clone = pickle.loads(pickle.dumps(stream))
        assert [clone.next_u64() for _ in range(10)] == \
            [stream.next_u64() for _ in range(10)]

    def test_random_and_gauss_ranges(self):
        stream = SplitMix64(1234)
        values = [stream.random() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 190  # not obviously degenerate
        draws = [stream.gauss(0.0, 1.0) for _ in range(200)]
        assert any(d < 0 for d in draws) and any(d > 0 for d in draws)

    def test_below_is_always_in_range(self):
        stream = SplitMix64(77)
        for bound in (1, 2, 3, 10, 1000, 1 << 31):
            for _ in range(20):
                assert 0 <= stream.below(bound) < bound

    def test_episode_never_constructs_fresh_python_rng(self):
        # The perf satellite: per-device randomness comes from the one
        # splitmix stream carried in DeviceParams (plus the platform's
        # own seeded RNG reused via reset) — stepping a device must not
        # instantiate random.Random anywhere on the hot path.
        spec = FleetSpec(devices=1, seed=6)
        params = device_params(spec, 0)
        platform = Platform(SYSTEMS[params.system])
        platform.reset(params.platform_seed, params.start_fraction,
                       spec.battery_scale)
        rt = EntRuntime.standard()
        rt.bind_platform(platform)
        app = DeviceApp(rt, spec)
        constructed = []
        original = random.Random.__init__

        def counting(self, *args, **kwargs):
            constructed.append(args)
            return original(self, *args, **kwargs)

        random.Random.__init__ = counting
        try:
            run_device(platform, rt, app, params, spec.steps)
        finally:
            random.Random.__init__ = original
        assert constructed == []

    def test_fixed_seed_differential_determinism(self):
        # Same spec, derived twice from scratch: outcome-for-outcome
        # identical episodes (the differential test the RNG satellite
        # asks for).
        spec = FleetSpec(devices=6, seed=13)
        outcomes = []
        for _ in range(2):
            run = []
            for index in range(spec.devices):
                params = device_params(spec, index)
                platform = Platform(SYSTEMS[params.system])
                platform.reset(params.platform_seed,
                               params.start_fraction, spec.battery_scale)
                rt = EntRuntime.standard()
                rt.bind_platform(platform)
                run.append(run_device(platform, rt, DeviceApp(rt, spec),
                                      params, spec.steps))
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
