"""Observing a fleet device does not change what it does.

The embedded runtime's method wrapper answers the common dfall check
inline (known receiver mode, no tracer, no profiler, check holds) and
sends every other case to ``EntRuntime._check_dfall``.  Attaching a
tracer or a profiler forces every check down the shared path, so
running the same seeded devices three ways — plain, traced, profiled
— compares the inline probe against the shared check on identical
inputs.  The devices include refused uplink pushes, so both verdicts
are exercised, and ``booted`` runs its traced transitions too.

The rest of the module pins the runtime behaviours the fast path must
keep: silent and baseline runtimes, stack restoration when a
``booted`` block raises, and booting from an un-snapshotted object.
"""

import pytest

from repro.core.errors import EnergyException
from repro.core.modes import TOP, Mode
from repro.fleet import FleetSpec, device_params
from repro.fleet.device import DeviceApp, run_device
from repro.obs.events import DfallCheckEvent, ModeTransitionEvent
from repro.obs.prof import Profiler
from repro.obs.tracer import Tracer
from repro.platform.systems import SYSTEMS, Platform
from repro.runtime.embedded import EntRuntime

SPEC = FleetSpec(devices=40, seed=20)


def _run(index, **observers):
    """Run device ``index`` on fresh objects, as the reference engine
    does; returns ``(outcome, stats dict, runtime)``."""
    params = device_params(SPEC, index)
    platform = Platform(SYSTEMS[params.system])
    platform.reset(params.platform_seed, params.start_fraction,
                   SPEC.battery_scale)
    rt = EntRuntime.standard(**observers)
    app = DeviceApp(rt, SPEC)
    rt.bind_platform(platform)
    outcome = run_device(platform, rt, app, params, SPEC.steps)
    return outcome, rt.stats.as_dict(), rt


class TestFleetDeviceObservation:
    @pytest.fixture(scope="class")
    def runs(self):
        return [(_run(index),
                 _run(index, tracer=Tracer()),
                 _run(index, profiler=Profiler("embedded")))
                for index in range(SPEC.devices)]

    def test_outcome_and_stats_equal_under_observation(self, runs):
        for plain, traced, profiled in runs:
            assert traced[0] == plain[0]
            assert profiled[0] == plain[0]
            assert traced[1] == plain[1]
            assert profiled[1] == plain[1]

    def test_population_has_refused_and_accepted_pushes(self, runs):
        outcomes = [plain[0] for plain, _, _ in runs]
        refused = sum(outcome.violations for outcome in outcomes)
        pushes = sum(outcome.pushes for outcome in outcomes)
        assert 0 < refused < pushes

    def test_tracer_saw_every_check_and_both_verdicts(self, runs):
        verdicts = set()
        for plain, traced, _ in runs:
            events = traced[2].tracer.events()
            checks = [e for e in events if isinstance(e, DfallCheckEvent)]
            assert len(checks) == plain[1]["dfall_checks"]
            verdicts.update(check.holds for check in checks)
            # Every booted block opens and closes a closure transition.
            closures = [e for e in events
                        if isinstance(e, ModeTransitionEvent)
                        and e.scope == "closure"]
            assert len(closures) % 2 == 0 and closures
        assert verdicts == {True, False}

    def test_profiler_counted_every_check(self, runs):
        for plain, _, profiled in runs:
            sites = profiled[2].profiler.profile.check_sites
            executed = sum(entry["executed"] for sid, entry in sites.items()
                           if sid.startswith("dfall@"))
            assert executed == plain[1]["dfall_checks"]


def _uplink(rt):
    @rt.static("full_throttle")
    class Uplink:
        def push(self):
            return "sent"

    return Uplink()


class TestCheckModes:
    @pytest.mark.parametrize("observers", [
        {}, {"tracer": Tracer()}, {"profiler": Profiler("embedded")}],
        ids=["plain", "traced", "profiled"])
    def test_silent_failing_push_neither_raises_nor_counts(self,
                                                           observers):
        rt = EntRuntime.standard(silent=True, **observers)
        uplink = _uplink(rt)
        with rt.booted("energy_saver"):
            assert uplink.push() == "sent"
        assert rt.stats.dfall_checks == 1
        assert rt.stats.energy_exceptions == 0

    @pytest.mark.parametrize("observers", [
        {}, {"tracer": Tracer()}, {"profiler": Profiler("embedded")}],
        ids=["plain", "traced", "profiled"])
    def test_failing_push_raises_and_counts(self, observers):
        rt = EntRuntime.standard(**observers)
        uplink = _uplink(rt)
        with rt.booted("energy_saver"):
            with pytest.raises(EnergyException, match="waterfall"):
                uplink.push()
        assert rt.stats.dfall_checks == 1
        assert rt.stats.energy_exceptions == 1

    def test_baseline_skips_checks(self):
        rt = EntRuntime.standard(baseline=True)
        uplink = _uplink(rt)
        with rt.booted("energy_saver"):
            assert uplink.push() == "sent"
        assert rt.stats.messages == 1
        assert rt.stats.dfall_checks == 0
        assert rt.stats.energy_exceptions == 0


class TestBooted:
    def _stacks(self, rt):
        return list(rt._mode_stack), list(rt._self_stack)

    @pytest.mark.parametrize("observers", [{}, {"tracer": Tracer()}],
                             ids=["plain", "traced"])
    def test_exception_inside_restores_both_stacks(self, observers):
        rt = EntRuntime.standard(**observers)

        @rt.dynamic
        class Agent:
            def attributor(self):
                return "managed"

        agent = rt.snapshot(Agent())
        before = self._stacks(rt)
        with pytest.raises(ValueError):
            with rt.booted(agent) as mode:
                assert mode == Mode("managed")
                with rt.booted("energy_saver"):
                    raise ValueError("app error")
        assert self._stacks(rt) == before == ([TOP], [None])
        if observers:
            closures = [e for e in rt.tracer.events()
                        if isinstance(e, ModeTransitionEvent)
                        and e.scope == "closure"]
            assert [(e.from_mode, e.to_mode) for e in closures] == [
                ("$top", "managed"), ("managed", "energy_saver"),
                ("energy_saver", "managed"), ("managed", "$top")]

    def test_unsnapshotted_object_raises_when_called(self):
        rt = EntRuntime.standard()

        @rt.dynamic
        class Agent:
            def attributor(self):
                return "managed"

        with pytest.raises(EnergyException, match="un-snapshotted"):
            rt.booted(Agent())
        with pytest.raises(EnergyException, match="un-snapshotted"):
            rt.booted(object())
        assert self._stacks(rt) == ([TOP], [None])
