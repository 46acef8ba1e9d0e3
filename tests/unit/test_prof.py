"""Unit tests for the cross-engine profiler (``repro.obs.prof``)."""

import json
import pickle

import pytest

from repro.obs.prof import (NULL_PROFILER, PROFILE_FORMATS, NullProfiler,
                            Profile, Profiler, collapsed_stacks,
                            energy_by_label, ic_class,
                            profile_chrome_trace, render_profile, site_id,
                            write_profile)


class FakeSpan:
    def __init__(self, line, column):
        self.line = line
        self.column = column


def make_profiler(engine="vm", step=1.0):
    """A profiler on a deterministic clock advancing ``step`` per read."""
    clock = {"t": 0.0}

    def now():
        clock["t"] += step
        return clock["t"]

    return Profiler(engine, clock=now)


class TestSiteId:
    def test_spanful(self):
        assert site_id("dfall", FakeSpan(12, 4)) == "dfall@12:4"

    def test_spanless(self):
        assert site_id("dfall", None) == "dfall@?"
        assert site_id("snapshot_bound", object()) == "snapshot_bound@?"

    def test_symbolic(self):
        # Embedded-runtime checks have no span; their site is a name.
        assert site_id("dfall", "Agent.work") == "dfall@Agent.work"
        assert site_id("snapshot_bound", "Agent") == "snapshot_bound@Agent"


class TestIcClass:
    @pytest.mark.parametrize("entries,expected", [
        (0, "-"), (1, "mono"), (2, "poly"), (3, "poly"),
        (4, "mega"), (10, "mega")])
    def test_classification(self, entries, expected):
        assert ic_class(entries) == expected


class TestProfilerAttribution:
    def test_bump_attributes_to_previous_label(self):
        profiler = make_profiler()
        profiler.bump("op.A")     # t=1: nothing pending yet
        profiler.bump("op.B")     # t=2: A gets 1s
        profiler.bump("op.A")     # t=3: B gets 1s
        profiler.finish()         # t=4: A gets 1s
        profile = profiler.profile
        hists = profile.registry.histograms
        assert hists["op.A"].count == 2
        assert hists["op.A"].total == pytest.approx(2.0)
        assert hists["op.B"].count == 1
        assert hists["op.B"].total == pytest.approx(1.0)
        # Histogram counts are exact execution counts; intervals
        # partition the profiled window.
        assert profile.total_time == pytest.approx(3.0)

    def test_finish_is_idempotent(self):
        profiler = make_profiler()
        profiler.bump("op.A")
        profiler.finish()
        total = profiler.profile.total_time
        profiler.finish()
        assert profiler.profile.total_time == total

    def test_second_finish_adds_nothing(self):
        profiler = make_profiler()
        profiler.push("Main.main", "managed")
        profiler.bump("op.A", "managed")
        profiler.pop()
        profiler.finish()
        profile = profiler.profile
        before = (profile.as_dict(), dict(profile.mode_time),
                  dict(profile.stack_time))
        profiler.finish()
        assert (profile.as_dict(), dict(profile.mode_time),
                dict(profile.stack_time)) == before

    def test_reused_profiler_counts_both_runs(self):
        """Each run ends in ``finish``; the second run's first bump
        opens a fresh interval instead of closing the first run's."""
        profiler = make_profiler()
        for _ in range(2):
            profiler.push("Main.main")
            profiler.bump("op.A")
            profiler.bump("op.B")
            profiler.pop()
            profiler.finish()
        hists = profiler.profile.registry.histograms
        assert {name: h.count for name, h in hists.items()} == {
            "call.Main.main": 2, "op.A": 2, "op.B": 2,
            "engine.resume": 2}
        # Every bump interval is one clock step: 8 intervals in all.
        assert profiler.profile.total_time == pytest.approx(8.0)
        assert profiler.profile.stack_time == pytest.approx(
            {"Main.main": 6.0, "(root)": 2.0})

    def test_merged_folds_equal_one_profile_of_both_runs(self):
        def run(profiler, labels):
            for label, mode in labels:
                profiler.bump(label, mode)
            profiler.finish()

        first = [("op.A", "managed"), ("op.B", None), ("op.A", None)]
        second = [("op.B", None), ("op.A", "managed")]
        # A step inside one bucket, so rounding cannot move a sample.
        both = make_profiler(step=3e-4)
        run(both, first)
        run(both, second)
        merged, other = make_profiler(step=3e-4), make_profiler(step=3e-4)
        run(merged, first)
        run(other, second)
        merged.profile.merge(other.profile)
        for name, h in both.profile.registry.histograms.items():
            m = merged.profile.registry.histograms[name]
            assert (m.count, m.bucket_counts) == (h.count, h.bucket_counts)
        assert set(merged.profile.registry.histograms) == set(
            both.profile.registry.histograms)
        assert merged.profile.mode_time == pytest.approx(
            both.profile.mode_time)
        assert merged.profile.stack_time == pytest.approx(
            both.profile.stack_time)

    def test_mode_time_keys(self):
        profiler = make_profiler()
        profiler.bump("op.A", "managed")
        profiler.bump("op.A", None)
        profiler.finish()
        mode_time = profiler.profile.mode_time
        assert mode_time[("op.A", "managed")] == pytest.approx(1.0)
        assert mode_time[("op.A", None)] == pytest.approx(1.0)

    def test_push_pop_builds_stack_keys(self):
        profiler = make_profiler()
        profiler.push("Main.main")
        profiler.push("Agent.work")
        profiler.bump("op.ADD")
        profiler.pop()
        profiler.pop()
        profiler.finish()
        profile = profiler.profile
        assert "Main.main;Agent.work" in profile.stack_time
        assert profile.registry.histograms["call.Main.main"].count == 1
        assert profile.registry.histograms["call.Agent.work"].count == 1
        # Popping re-opens the caller's frame under engine.resume.
        assert "engine.resume" in profile.registry.histograms

    def test_stack_keys_after_nested_push_pop(self):
        """``pop`` restores the caller's key; a call label's interval
        belongs to the callee's stack, ``engine.resume`` to the
        caller's."""
        profiler = make_profiler()
        profiler.push("Main.main")           # t=1
        profiler.push("A.f")                 # t=2
        profiler.push("B.g")                 # t=3
        profiler.pop()                       # t=4
        profiler.push("B.g")                 # t=5
        profiler.pop()                       # t=6
        profiler.pop()                       # t=7
        profiler.push("B.g")                 # t=8
        profiler.pop()                       # t=9
        profiler.pop()                       # t=10
        profiler.pop()                       # t=11: unbalanced, stays
        profiler.finish()                    # t=12
        assert profiler.profile.stack_time == pytest.approx({
            "Main.main": 3.0,                # call.Main.main, 2 resumes
            "Main.main;A.f": 3.0,            # call.A.f, 2 resumes
            "Main.main;A.f;B.g": 2.0,        # call.B.g twice
            "Main.main;B.g": 1.0,
            "(root)": 2.0})                  # 2 resumes
        hists = profiler.profile.registry.histograms
        assert hists["call.B.g"].count == 3
        assert hists["engine.resume"].count == 6


class TestProfilerSites:
    def test_call_and_ic_miss_counters(self):
        profiler = make_profiler()
        profiler.call("call@3:7", "Agent.work")
        profiler.call("call@3:7", "Agent.work")
        profiler.ic_miss("call@3:7", "Agent.work", 2)
        entry = profiler.profile.call_sites["call@3:7"]
        assert entry == {"name": "Agent.work", "calls": 2,
                         "ic_misses": 1, "ic_entries": 2}

    def test_check_and_elided_counting(self):
        profiler = make_profiler()
        span = FakeSpan(5, 2)
        profiler.check("dfall", span, "es")
        profiler.check("dfall", span, "es")
        profiler.check_elided("dfall", span)
        profiler.check_elided("snapshot_bound", None)
        profiler.finish()
        sites = profiler.profile.check_sites
        assert sites["dfall@5:2"]["executed"] == 2
        assert sites["dfall@5:2"]["elided"] == 1
        assert sites["snapshot_bound@?"]["executed"] == 0
        assert sites["snapshot_bound@?"]["elided"] == 1
        totals = profiler.profile.check_totals()
        assert totals["dfall"] == {"executed": 2, "elided": 1}
        assert totals["snapshot_bound"] == {"executed": 0, "elided": 1}
        # Executed checks also get a timed label.
        assert profiler.profile.registry.histograms[
            "check.dfall@5:2"].count == 2


class TestProfileMerge:
    def build(self, labels, checks=()):
        profiler = make_profiler()
        for label in labels:
            profiler.bump(label)
        for kind, line in checks:
            profiler.check(kind, FakeSpan(line, 0))
        profiler.finish()
        return profiler.profile

    def test_merge_is_commutative(self):
        a1 = self.build(["op.A", "op.B"], [("dfall", 1)])
        a2 = self.build(["op.B", "op.C"], [("dfall", 1), ("dfall", 2)])
        b1 = self.build(["op.A", "op.B"], [("dfall", 1)])
        b2 = self.build(["op.B", "op.C"], [("dfall", 1), ("dfall", 2)])
        a1.merge(a2)
        b2.merge(b1)
        assert a1.check_sites == b2.check_sites
        assert {n: h.count for n, h in a1.registry.histograms.items()} \
            == {n: h.count for n, h in b2.registry.histograms.items()}
        assert a1.total_time == pytest.approx(b2.total_time)

    def test_merge_call_sites(self):
        a, b = Profile("vm"), Profile("vm")
        a.call_sites["call@1:1"] = {"name": "m", "calls": 2,
                                    "ic_misses": 1, "ic_entries": 1}
        b.call_sites["call@1:1"] = {"name": "m", "calls": 3,
                                    "ic_misses": 0, "ic_entries": 4}
        a.merge(b)
        assert a.call_sites["call@1:1"]["calls"] == 5
        assert a.call_sites["call@1:1"]["ic_misses"] == 1
        assert a.call_sites["call@1:1"]["ic_entries"] == 4

    def test_profile_is_picklable(self):
        profile = self.build(["op.A"], [("dfall", 1)])
        clone = pickle.loads(pickle.dumps(profile))
        assert clone.check_sites == profile.check_sites
        assert clone.total_time == pytest.approx(profile.total_time)

    def test_as_dict_shape(self):
        profile = self.build(["op.A", "op.B"], [("dfall", 3)])
        payload = json.loads(json.dumps(profile.as_dict()))
        assert payload["engine"] == "vm"
        assert payload["labels"]["op.A"]["count"] == 1
        assert payload["check_sites"]["dfall@3:0"]["executed"] == 1
        assert payload["check_totals"]["dfall"]["executed"] == 1


class TestViews:
    def test_collapsed_stacks_microseconds(self):
        profile = Profile("vm")
        profile.stack_time["Main.main;Agent.work"] = 0.0025
        profile.stack_time["(root)"] = 0.001
        lines = collapsed_stacks(profile)
        assert "Main.main;Agent.work 2500" in lines
        assert "(root) 1000" in lines

    def test_chrome_trace_is_json_and_contiguous(self):
        profiler = make_profiler()
        profiler.bump("op.A")
        profiler.bump("op.B")
        profiler.finish()
        trace = json.loads(json.dumps(
            profile_chrome_trace(profiler.profile)))
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"
                  and e["tid"] == 0]
        assert events, "expected aggregate label events"
        cursor = 0.0
        for event in events:
            assert event["ts"] == pytest.approx(cursor)
            cursor += event["dur"]

    def test_energy_by_label_proportional(self):
        profile = Profile("vm")
        profile.mode_time[("op.A", "es")] = 1.0
        profile.mode_time[("op.B", "es")] = 3.0
        profile.mode_time[("op.C", None)] = 2.0
        joules = energy_by_label(profile, {"es": 8.0, "(untracked)": 5.0})
        assert joules["op.A"] == pytest.approx(2.0)
        assert joules["op.B"] == pytest.approx(6.0)
        assert joules["op.C"] == pytest.approx(5.0)
        assert sum(joules.values()) == pytest.approx(13.0)

    def test_energy_by_label_skips_unknown_modes(self):
        profile = Profile("vm")
        profile.mode_time[("op.A", "never_metered")] = 1.0
        assert energy_by_label(profile, {"es": 8.0}) == {}


class TestRendering:
    def make_profile(self):
        profiler = make_profiler()
        profiler.push("Main.main")
        profiler.call("call@?", "Main.main")
        for _ in range(3):
            profiler.bump("op.ADD")
        profiler.check("dfall", FakeSpan(4, 2), "es")
        profiler.pop()
        profiler.finish()
        return profiler.profile

    def test_render_sections(self):
        text = render_profile(self.make_profile(), top=2, checks=True)
        assert "Profile (engine=vm)" in text
        assert "Hot labels:" in text
        assert "more labels; raise --top" in text
        assert "Call sites:" in text
        assert "Check sites:" in text
        assert "dfall@4:2" in text
        assert "Check totals:" in text

    def test_render_with_energy_column(self):
        profile = self.make_profile()
        text = render_profile(profile, energy={"op.ADD": 1.25})
        assert "joules" in text
        assert "1.250000" in text

    def test_write_profile_formats(self, tmp_path):
        profile = self.make_profile()
        out = tmp_path / "p.json"
        write_profile(profile, str(out), fmt="json")
        assert json.loads(out.read_text())["engine"] == "vm"
        out = tmp_path / "p.collapsed"
        write_profile(profile, str(out), fmt="collapsed")
        assert "Main.main" in out.read_text()
        out = tmp_path / "p.chrome.json"
        write_profile(profile, str(out), fmt="chrome")
        assert "traceEvents" in json.loads(out.read_text())

    def test_write_profile_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_profile(self.make_profile(),
                          str(tmp_path / "p"), fmt="xml")


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        assert isinstance(NULL_PROFILER, NullProfiler)
        NULL_PROFILER.bump("op.A")
        NULL_PROFILER.push("m")
        NULL_PROFILER.pop()
        NULL_PROFILER.call("call@1:1", "m")
        NULL_PROFILER.ic_miss("call@1:1", "m", 1)
        NULL_PROFILER.check("dfall", None)
        NULL_PROFILER.check("dfall", "Agent.work")
        NULL_PROFILER.check_elided("dfall", None)
        NULL_PROFILER.check_elided("dfall", "Agent.work")
        NULL_PROFILER.finish()
        assert NULL_PROFILER.profile is None

    def test_formats_constant(self):
        assert set(PROFILE_FORMATS) \
            == {"text", "json", "collapsed", "chrome"}
