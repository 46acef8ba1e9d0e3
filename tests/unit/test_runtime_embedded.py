"""Unit tests for the embedded ENT runtime (repro.runtime.embedded)."""

import pytest

from repro.core.errors import EnergyException, EntError, EntRuntimeError
from repro.core.modes import Mode
from repro.runtime import EntRuntime, get_tag, mode_of


@pytest.fixture
def rt():
    return EntRuntime.standard()


def make_site(rt):
    @rt.dynamic
    class Site:
        depth = rt.mcase({"energy_saver": 1, "managed": 2,
                          "full_throttle": 3})

        def __init__(self, n):
            self.n = n

        def attributor(self):
            if self.n > 200:
                return "full_throttle"
            if self.n > 50:
                return "managed"
            return "energy_saver"

        def crawl(self):
            return self.depth

    return Site


class TestDecorators:
    def test_dynamic_requires_attributor(self, rt):
        with pytest.raises(EntError):
            @rt.dynamic
            class Bad:
                pass

    def test_static_rejects_attributor(self, rt):
        with pytest.raises(EntError):
            @rt.static("managed")
            class Bad:
                def attributor(self):
                    return "managed"

    def test_dynamic_instance_starts_unmoded(self, rt):
        Site = make_site(rt)
        site = Site(10)
        assert mode_of(site) is None
        assert get_tag(site).dynamic

    def test_static_instance_has_fixed_mode(self, rt):
        @rt.static("managed")
        class Fixed:
            pass

        assert mode_of(Fixed()) == Mode("managed")

    def test_static_unknown_mode_rejected(self, rt):
        with pytest.raises(Exception):
            rt.static("warp")(type("X", (), {}))


class TestSnapshot:
    def test_attributor_decides(self, rt):
        Site = make_site(rt)
        assert mode_of(rt.snapshot(Site(300))) == Mode("full_throttle")
        assert mode_of(rt.snapshot(Site(100))) == Mode("managed")
        assert mode_of(rt.snapshot(Site(10))) == Mode("energy_saver")

    def test_bad_check(self, rt):
        Site = make_site(rt)
        with pytest.raises(EnergyException):
            rt.snapshot(Site(300), upper="managed")

    def test_lower_bound(self, rt):
        Site = make_site(rt)
        with pytest.raises(EnergyException):
            rt.snapshot(Site(10), lower="managed")

    def test_snapshot_unmanaged_rejected(self, rt):
        with pytest.raises(EntError):
            rt.snapshot(object())

    def test_lazy_then_copy(self, rt):
        Site = make_site(rt)
        site = Site(100)
        first = rt.snapshot(site)
        assert first is site          # lazy in-place tag
        second = rt.snapshot(site)
        assert second is not site     # second snapshot copies
        assert rt.stats.lazy_tags == 1
        assert rt.stats.copies == 1

    def test_lazy_copy_saves_one_copy_over_300_snapshots(self):
        totals, copies = [], []
        for lazy in (True, False):
            rt = EntRuntime.standard(lazy_copy=lazy)
            site = make_site(rt)(300)
            totals.append(sum(rt.snapshot(site).depth for _ in range(300)))
            copies.append(rt.stats.copies)
        assert totals == [900, 900]
        assert copies[0] == copies[1] - 1

    def test_eager_copy(self):
        rt = EntRuntime.standard(lazy_copy=False)
        Site = make_site(rt)
        site = Site(100)
        snapped = rt.snapshot(site)
        assert snapped is not site
        assert mode_of(site) is None      # original stays dynamic

    def test_monotonic_modes(self):
        rt = EntRuntime.standard(lazy_copy=False)
        Site = make_site(rt)
        site = Site(100)
        a = rt.snapshot(site)
        site.n = 1000
        b = rt.snapshot(site)
        assert mode_of(a) == Mode("managed")
        assert mode_of(b) == Mode("full_throttle")

    def test_silent_ignores_bad_check(self):
        rt = EntRuntime.standard(silent=True)
        Site = make_site(rt)
        snapped = rt.snapshot(Site(300), upper="managed")
        # Tagging remains in place, as in the paper's silent build.
        assert mode_of(snapped) == Mode("full_throttle")

    def test_attributor_must_return_mode(self, rt):
        @rt.dynamic
        class Weird:
            def attributor(self):
                return 42

        with pytest.raises(EntError):
            rt.snapshot(Weird())


class TestWaterfall:
    def test_messaging_unmoded_dynamic_rejected(self, rt):
        Site = make_site(rt)
        with pytest.raises(EnergyException):
            Site(10).crawl()

    def test_waterfall_violation(self, rt):
        Site = make_site(rt)
        heavy = rt.snapshot(Site(300))
        with rt.booted("energy_saver"):
            with pytest.raises(EnergyException):
                heavy.crawl()

    def test_downhill_ok(self, rt):
        Site = make_site(rt)
        light = rt.snapshot(Site(10))
        with rt.booted("full_throttle"):
            assert light.crawl() == 1

    def test_booted_from_object(self, rt):
        Site = make_site(rt)
        agent = rt.snapshot(Site(100))
        with rt.booted(agent) as mode:
            assert mode == Mode("managed")

    def test_booted_from_unmoded_rejected(self, rt):
        Site = make_site(rt)
        with pytest.raises(EnergyException):
            with rt.booted(Site(10)):
                pass

    def test_self_call_allowed(self, rt):
        @rt.dynamic
        class SelfCaller:
            def attributor(self):
                return "full_throttle"

            def outer(self):
                return self.inner()

            def inner(self):
                return 42

        obj = rt.snapshot(SelfCaller())
        # full_throttle object messaged from TOP: fine; its self-call
        # to inner() must not re-check.
        assert obj.outer() == 42

    def test_mode_override(self, rt):
        @rt.dynamic
        class Site:
            def attributor(self):
                return "energy_saver"

            @rt.mode_override("full_throttle")
            def media_crawl(self):
                return "expensive"

        site = rt.snapshot(Site())
        with rt.booted("energy_saver"):
            with pytest.raises(EnergyException):
                site.media_crawl()
        with rt.booted("full_throttle"):
            assert site.media_crawl() == "expensive"

    def test_closure_mode_switches_to_receiver(self, rt):
        Site = make_site(rt)
        observed = []

        @rt.dynamic
        class Agent:
            def attributor(self):
                return "managed"

            def work(self):
                observed.append(rt.current_mode)
                return 1

        agent = rt.snapshot(Agent())
        with rt.booted("full_throttle"):
            agent.work()
        assert observed == [Mode("managed")]

    def test_silent_suppresses_waterfall(self):
        rt = EntRuntime.standard(silent=True)
        Site = make_site(rt)
        heavy = rt.snapshot(Site(300))
        with rt.booted("energy_saver"):
            assert heavy.crawl() == 3


class TestModeCases:
    def test_descriptor_eliminates_on_instance_mode(self, rt):
        Site = make_site(rt)
        site = rt.snapshot(Site(300))
        assert site.crawl() == 3

    def test_elimination_on_unmoded_rejected(self, rt):
        """A failed elimination is a run-time error, as in the ENT
        engines, not the EnergyException programs catch."""
        Site = make_site(rt)
        with pytest.raises(EntRuntimeError) as info:
            _ = Site(10).depth
        assert not isinstance(info.value, EnergyException)
        assert str(info.value) == (
            "cannot eliminate a mode case against a dynamic mode; "
            "snapshot the enclosing object first")

    def test_elimination_inside_a_higher_boot(self, rt):
        """Figure 6's mechanism loop: snapshot, boot, message and
        eliminate."""
        @rt.dynamic
        class Tiny:
            level = rt.mcase({"energy_saver": 1, "managed": 2,
                              "full_throttle": 3})

            def attributor(self):
                return "managed"

            def touch(self):
                return self.level

        tiny = rt.snapshot(Tiny())
        with rt.booted("full_throttle"):
            assert tiny.touch() == 2

    def test_coverage_required(self, rt):
        with pytest.raises(EntError):
            rt.mcase({"managed": 1})

    def test_default_branch(self, rt):
        case = rt.mcase({"managed": 2}, default=0)
        assert case.select(Mode("managed")) == 2
        assert case.select(Mode("energy_saver")) == 0

    def test_default_none_is_a_default(self, rt):
        case = rt.mcase({"managed": 2}, default=None)
        assert case.select(Mode("full_throttle")) is None

    def test_explicit_select(self, rt):
        case = rt.mcase({"energy_saver": 1, "managed": 2,
                         "full_throttle": 3})
        assert case.select(Mode("full_throttle")) == 3

    def test_for_object(self, rt):
        Site = make_site(rt)
        site = rt.snapshot(Site(100))
        case = rt.mcase({"energy_saver": "l", "managed": "m",
                         "full_throttle": "h"})
        assert case.for_object(site) == "m"

    def test_class_access_returns_descriptor(self, rt):
        Site = make_site(rt)
        from repro.runtime.embedded import ModeCase
        assert isinstance(Site.depth, ModeCase)


class TestBaseline:
    def test_baseline_skips_checks(self):
        rt = EntRuntime.standard(baseline=True)
        Site = make_site(rt)
        site = rt.snapshot(Site(300), upper="managed")  # no bad check
        with rt.booted("energy_saver"):
            assert site.crawl() == 3  # no waterfall check either
        assert rt.stats.bound_checks == 0

    def test_stats_track_checks(self, rt):
        Site = make_site(rt)
        site = rt.snapshot(Site(100))
        with rt.booted("full_throttle"):
            site.crawl()
        assert rt.stats.snapshots == 1
        assert rt.stats.bound_checks == 1
        assert rt.stats.dfall_checks >= 1
        assert rt.stats.mcase_elims >= 1

    def test_one_stats_record_with_the_interpreters_counters(self, rt):
        """Both runtimes keep one ``RunStats``, in the ``--stats`` JSON
        order; the interpreter-only counters stay 0 here."""
        from repro.core.checks import RunStats
        from repro.lang.interp import Interpreter
        from repro.lang.typechecker import check_program

        Site = make_site(rt)
        rt.snapshot(Site(100))
        stats = rt.stats.as_dict()
        interp = Interpreter(check_program("modes { a <= b; }\n"
                                           "class Main { void main() { } }"))
        assert type(rt.stats) is type(interp.stats) is RunStats
        assert list(stats) == [
            "steps", "messages", "dfall_checks", "dfall_elided",
            "snapshots", "copies", "lazy_tags", "bound_checks",
            "bound_checks_elided", "energy_exceptions", "mcase_elims",
            "objects_created", "shallow_checks"]
        assert stats["steps"] == stats["objects_created"] == 0
        assert stats["dfall_elided"] == stats["bound_checks_elided"] == 0
        assert stats["snapshots"] == stats["lazy_tags"] == 1
        # Always 0, read by the benchmark harness, not a field.
        assert rt.stats.dfall_memo_hits == 0
        assert "dfall_memo_hits" not in stats
        rt.reset_device()
        assert set(rt.stats.as_dict().values()) == {0}


class TestThermalRuntime:
    def test_thermal_lattice(self):
        rt = EntRuntime.thermal()
        assert rt.lattice.leq(Mode("overheating"), Mode("safe"))
        assert rt.lattice.leq(Mode("hot"), Mode("safe"))


class TestEmbeddedProfiling:
    def test_profiler_counts_symbolic_sites(self):
        from repro.obs.prof import Profiler

        profiler = Profiler("embedded")
        rt = EntRuntime.standard(profiler=profiler)
        Site = make_site(rt)
        site = rt.snapshot(Site(100))
        with rt.booted("full_throttle"):
            site.crawl()
        profiler.finish()
        profile = profiler.profile
        assert profile.check_sites["snapshot_bound@Site"]["executed"] \
            == rt.stats.bound_checks
        assert profile.check_sites["dfall@Site.crawl"]["executed"] >= 1
        assert profile.call_sites["call@Site.crawl"]["calls"] == 1
        assert "Site.crawl" in " ".join(profile.stack_time)

    def test_profiling_does_not_change_results_or_stats(self):
        from repro.obs.prof import Profiler

        def episode(profiler=None):
            rt = EntRuntime.standard(profiler=profiler)
            Site = make_site(rt)
            site = rt.snapshot(Site(100))
            with rt.booted("full_throttle"):
                result = site.crawl()
            return result, rt.stats.as_dict()

        plain = episode()
        profiler = Profiler("embedded")
        profiled = episode(profiler)
        profiler.finish()
        assert plain == profiled

    def test_default_runtime_uses_null_profiler(self):
        from repro.obs.prof import NULL_PROFILER

        assert EntRuntime.standard().profiler is NULL_PROFILER
