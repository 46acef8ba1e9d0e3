"""Edge-case tests for the embedded runtime: context restoration,
exception safety, thermal runtimes, and Ext binding."""

import pytest

from repro.core.errors import EnergyException, EntError
from repro.core.modes import TOP, Mode
from repro.platform import make_platform
from repro.runtime import EntRuntime, mode_of


@pytest.fixture
def rt():
    return EntRuntime.standard()


def make_worker(rt, mode="managed"):
    @rt.static(mode)
    class Worker:
        def ping(self):
            return rt.current_mode.name

    return Worker


class TestContextRestoration:
    def test_booted_restores_on_exception(self, rt):
        with pytest.raises(ValueError):
            with rt.booted("managed"):
                raise ValueError("app error")
        assert rt.current_mode is TOP

    def test_nested_booted_unwinds(self, rt):
        with rt.booted("full_throttle"):
            with rt.booted("managed"):
                assert rt.current_mode == Mode("managed")
            assert rt.current_mode == Mode("full_throttle")
        assert rt.current_mode is TOP

    def test_method_failure_restores_mode_stack(self, rt):
        @rt.static("managed")
        class Flaky:
            def explode(self):
                raise RuntimeError("kernel bug")

        flaky = Flaky()
        depth = len(rt._mode_stack)
        with pytest.raises(RuntimeError):
            flaky.explode()
        assert len(rt._mode_stack) == depth

    def test_closure_mode_visible_inside_method(self, rt):
        Worker = make_worker(rt, "energy_saver")
        with rt.booted("full_throttle"):
            assert Worker().ping() == "energy_saver"

    def test_top_level_runs_at_top(self, rt):
        Worker = make_worker(rt, "full_throttle")
        assert Worker().ping() == "full_throttle"
        assert rt.current_mode is TOP


class TestExtAndPlatform:
    def test_rebinding_platform(self, rt):
        a = make_platform("A", seed=1)
        a.battery.set_fraction(0.2)
        rt.bind_platform(a)
        assert rt.ext.battery() == pytest.approx(0.2)
        b = make_platform("A", seed=2)
        rt.bind_platform(b)
        assert rt.ext.battery() == pytest.approx(1.0)

    def test_ext_now_tracks_clock(self):
        platform = make_platform("A", seed=1)
        rt = EntRuntime.standard(platform)
        platform.cpu_work(1000.0)
        assert rt.ext.now() > 0


class TestModeHelpers:
    def test_mode_accepts_mode_instance(self, rt):
        assert rt.mode(Mode("managed")) == Mode("managed")

    def test_unknown_mode_rejected(self, rt):
        with pytest.raises(Exception):
            rt.mode("turbo")

    def test_mode_of_unmanaged_object(self, rt):
        assert mode_of(object()) is None

    def test_booted_accepts_mode_instance(self, rt):
        with rt.booted(Mode("managed")) as mode:
            assert mode == Mode("managed")


class TestSnapshotArgumentValidation:
    def test_snapshot_static_instance_rejected(self, rt):
        Worker = make_worker(rt)
        with pytest.raises(EntError):
            rt.snapshot(Worker())

    def test_bounds_must_be_declared_modes(self, rt):
        @rt.dynamic
        class D:
            def attributor(self):
                return "managed"

        with pytest.raises(Exception):
            rt.snapshot(D(), upper="ludicrous")

    def test_snapshot_keeps_instance_attributes(self, rt):
        @rt.dynamic
        class D:
            def __init__(self):
                self.payload = [1, 2]

            def attributor(self):
                return "managed"

        original = D()
        copy_one = rt.snapshot(original)       # lazy tag (same object)
        copy_two = rt.snapshot(original)       # physical copy
        assert copy_two.payload is original.payload  # shallow


class TestThermalRuntimeIsolation:
    def test_thermal_and_standard_lattices_independent(self):
        battery_rt = EntRuntime.standard()
        thermal_rt = EntRuntime.thermal()
        assert Mode("safe") in thermal_rt.lattice
        assert Mode("safe") not in battery_rt.lattice

    def test_mode_case_against_thermal_runtime(self):
        rt = EntRuntime.thermal()
        case = rt.mcase({"overheating": 3, "hot": 2, "safe": 1})
        assert case.select(Mode("hot")) == 2

    def test_standard_case_rejects_thermal_mode_name(self):
        rt = EntRuntime.standard()
        with pytest.raises(EntError):
            rt.mcase({"safe": 1})


class TestStatsIsolation:
    def test_two_runtimes_do_not_share_stats(self):
        a = EntRuntime.standard()
        b = EntRuntime.standard()

        @a.dynamic
        class D:
            def attributor(self):
                return "managed"

        a.snapshot(D())
        assert a.stats.snapshots == 1
        assert b.stats.snapshots == 0

    def test_wrapped_flag_marks_methods(self, rt):
        Worker = make_worker(rt)
        assert getattr(Worker.ping, "_ent_wrapped", False)

    def test_private_methods_not_wrapped(self, rt):
        @rt.static("managed")
        class Shy:
            def _hidden(self):
                return 1

        assert not getattr(Shy._hidden, "_ent_wrapped", False)
