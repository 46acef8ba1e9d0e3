"""Property tests for the fleet's config/state split and seeding.

The fleet service rests on three refactors, each with a crisp
invariant this module exercises across seeds and systems:

* **Platform config/state split** — a :class:`PlatformState` survives
  ``pickle`` and, restored into any platform built from the same
  :class:`PlatformConfig`, steps float-for-float identically to the
  platform it was captured from; ``Platform.reset`` is bit-equal to
  fresh construction.
* **Embedded-runtime device split** — an :class:`EmbeddedDeviceState`
  pickles and restores onto a *shared* runtime (one lattice, one set
  of instrumented classes) with identical subsequent semantics and
  stats.
* **SplitMix seeding** — per-device parameter derivation is a pure
  function of ``(seed, index)``; streams pickle; no step of an episode
  ever constructs a fresh ``random.Random``.
"""

import pickle
import random

from repro.core.rng import SplitMix64, derive_seed, splitmix64
from repro.fleet import FleetSpec, device_params
from repro.fleet.device import DeviceApp, run_device
from repro.platform.systems import (PlatformState, make_platform,
                                    platform_from_config, system_config)
from repro.runtime.embedded import EmbeddedDeviceState, EntRuntime

SYSTEMS = ("A", "B", "C")
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


class TestPlatformStatePickle:
    def test_state_survives_pickle_with_identical_stepping(self):
        for system in SYSTEMS:
            for seed in SEEDS:
                config = system_config(system)
                original = platform_from_config(config, seed=seed,
                                                battery_fraction=0.9)
                _exercise(original, SplitMix64(seed))
                state = original.capture_state()
                clone_state = pickle.loads(pickle.dumps(state))
                assert clone_state == state
                restored = platform_from_config(config)
                restored.restore_state(clone_state)
                # Identical subsequent stepping, float for float.
                _exercise(original, SplitMix64(seed + 1))
                _exercise(restored, SplitMix64(seed + 1))
                assert restored.capture_state() == \
                    original.capture_state()

    def test_reset_is_bit_equal_to_fresh_construction(self):
        for system in SYSTEMS:
            for seed in SEEDS:
                config = system_config(system)
                fresh = platform_from_config(config, seed=seed,
                                             battery_fraction=0.7)
                reused = platform_from_config(config, seed=seed + 999,
                                              battery_fraction=0.1)
                _exercise(reused, SplitMix64(3))  # dirty it thoroughly
                reused.reset(seed, battery_fraction=0.7)
                assert reused.capture_state() == fresh.capture_state()
                _exercise(fresh, SplitMix64(5))
                _exercise(reused, SplitMix64(5))
                assert reused.capture_state() == fresh.capture_state()

    def test_platform_from_config_matches_system_class(self):
        for system in SYSTEMS:
            direct = make_platform(system, seed=4, battery_fraction=0.8)
            from_config = platform_from_config(system_config(system),
                                               seed=4,
                                               battery_fraction=0.8)
            _exercise(direct, SplitMix64(9))
            _exercise(from_config, SplitMix64(9))
            assert from_config.capture_state() == direct.capture_state()

    def test_shared_config_not_duplicated(self):
        # The immutable half really is shared: platforms built from one
        # config alias its CpuSpec (and the config is hashable, so the
        # fleet can key caches on it).
        config = system_config("B")
        p1 = platform_from_config(config)
        p2 = platform_from_config(config)
        assert p1.cpu.spec is config.cpu
        assert p2.cpu.spec is config.cpu
        assert hash(config) == hash(system_config("B"))

    def test_state_is_small_and_flat(self):
        # The per-device struct must stay cheap to ship between
        # processes — a few hundred bytes beyond the ~4 KB Mersenne
        # state, never a platform object graph.
        state = make_platform("A").capture_state()
        assert isinstance(state, PlatformState)
        assert len(pickle.dumps(state)) < 6000


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

    def test_state_survives_pickle_onto_shared_runtime(self):
        for seed in SEEDS:
            platform, rt, agent_cls = self._runtime_with_agent(seed)
            agent = rt.snapshot(agent_cls())
            with rt.booted(agent):
                agent.work()
            state = rt.capture_device_state(agent=agent)
            clone = pickle.loads(pickle.dumps(state))
            assert clone == state

            # A different runtime sharing only immutable config.
            platform2, rt2, agent_cls2 = self._runtime_with_agent(seed)
            agent2 = agent_cls2()
            rt2.restore_device_state(clone, agent=agent2)
            assert rt2.stats.as_dict() == rt.stats.as_dict()
            assert rt2.current_mode is rt.current_mode
            # Identical subsequent semantics: same mode decisions,
            # same movement on every counter.
            for r, a in ((rt, agent), (rt2, agent2)):
                snap = r.snapshot(a)
                with r.booted(snap):
                    snap.work()
            assert rt2.stats.as_dict() == rt.stats.as_dict()

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
        config = system_config("A")
        platform = platform_from_config(config)
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
        platform = platform_from_config(system_config(params.system))
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
                platform = platform_from_config(
                    system_config(params.system))
                platform.reset(params.platform_seed,
                               params.start_fraction, spec.battery_scale)
                rt = EntRuntime.standard()
                rt.bind_platform(platform)
                run.append(run_device(platform, rt, DeviceApp(rt, spec),
                                      params, spec.steps))
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
