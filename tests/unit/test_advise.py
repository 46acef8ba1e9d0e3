"""Unit tests for ``repro.advise``: uncertainty propagation, the cost
model, Pareto pruning, the attributor pin rewriter, and the
interval-valued renderers it feeds (profile table, Prometheus gauges,
per-class analysis rollups)."""

import json
import math
import pathlib

import pytest

from repro.advise import (ARCHS, AdviseConfig, Candidate, CostEntry,
                          CostModel, Uncertain, builtin_model,
                          dominates, energy_intervals, format_interval,
                          pareto_frontier, pin_classes, sum_uncertain,
                          widen)
from repro.core.errors import EntError
from repro.lang.typechecker import check_program

ROOT = pathlib.Path(__file__).resolve().parents[2]
CRAWLER = (ROOT / "examples" / "ent" / "crawler.ent").read_text()
SENSORS = (ROOT / "examples" / "ent" / "sensors.ent").read_text()


# ---------------------------------------------------------------------------
# Uncertain


def test_uncertain_propagation_rules():
    a = Uncertain(10.0, 4.0, n=5)
    b = Uncertain(3.0, 9.0, n=2)
    s = a + b
    assert s.mean == 13.0 and s.var == 13.0 and s.n == 2
    d = a - b
    assert d.mean == 7.0 and d.var == 13.0
    k = a.scale(2.0)
    assert k.mean == 20.0 and k.var == 16.0 and k.n == 5
    t = a.times(100)
    assert t.mean == 1000.0 and t.var == 400.0


def test_uncertain_from_samples_and_ci():
    u = Uncertain.from_samples([1.0, 2.0, 3.0])
    assert u.mean == 2.0 and u.n == 3
    assert u.var == pytest.approx(1.0)  # unbiased sample variance
    lo, hi = u.ci(z=2.0)
    assert lo == pytest.approx(0.0) and hi == pytest.approx(4.0)
    single = Uncertain.from_samples([5.0])
    assert single.var == 0.0 and single.n == 1
    with pytest.raises(ValueError):
        Uncertain.from_samples([])


def test_widen_applies_relative_and_absolute_floors():
    tight = widen(Uncertain(100.0, 1e-12), rel_floor=0.02)
    assert tight.std == pytest.approx(2.0)
    zero = widen(Uncertain(0.0, 0.0), abs_floor=1e-9)
    assert zero.std == pytest.approx(1e-9)
    loose = widen(Uncertain(10.0, 25.0), rel_floor=0.01)
    assert loose.std == pytest.approx(5.0)  # already above the floor


def test_uncertain_dict_round_trip_and_format():
    u = Uncertain(1.5, 0.04, n=7)
    back = Uncertain.from_dict(u.as_dict())
    assert back.mean == pytest.approx(u.mean)
    assert back.std == pytest.approx(u.std)
    assert back.n == 7
    text = format_interval(u, "J", digits=3)
    assert "±" in text and text.endswith("J")
    assert format_interval(Uncertain.exact(2.0), digits=1) \
        == "2.0 ± 0.0"


def test_sum_uncertain_adds_means_and_variances():
    total = sum_uncertain([Uncertain(1.0, 1.0), Uncertain(2.0, 2.0),
                           Uncertain(3.0, 3.0)])
    assert total.mean == 6.0 and total.var == 6.0


# ---------------------------------------------------------------------------
# Cost model


def test_builtin_archs_cover_required_keys():
    assert set(ARCHS) == {"sim45nm", "skylake", "cortex-a53"}
    for arch in ARCHS:
        model = builtin_model(arch)
        for key in ("default", "check.dfall", "check.snapshot_bound",
                    "check.mcase_elim", "native", "alloc"):
            assert key in model.entries, (arch, key)
    with pytest.raises(EntError):
        builtin_model("vax")


def test_label_resolution_chain():
    model = builtin_model()
    assert model.resolve_key("check.dfall") == "check.dfall"
    assert model.resolve_key("op.ADD") == "alu"
    assert model.resolve_key("op.CALL") == "call"
    assert model.resolve_key("op.SNAPSHOT") == "check.snapshot_bound"
    assert model.resolve_key("check.dfall@3:4") == "check.dfall"
    assert model.resolve_key(
        "check.mcase_elim@10:2") == "check.mcase_elim"
    assert model.resolve_key("node.Var") == "node"
    assert model.resolve_key("call.Site.crawl") == "call"
    assert model.resolve_key("native.Sys.work") == "native"
    assert model.resolve_key("attributor.Site") == "attributor"
    assert model.resolve_key("engine.vm") == "default"
    assert model.resolve_key("engine.resume") == "default"
    assert model.resolve_key("engine.jit_compile") == "default"


def test_cost_j_scales_counts_into_joules():
    model = builtin_model("sim45nm")
    one = model.cost("check.dfall")
    many = model.cost_j("check.dfall@5:5", 1000)
    assert many.mean == pytest.approx(one.mean * 1000 * 1e-12)
    # i.i.d. sum: variance scales with the count, std with sqrt(count)
    assert many.std == pytest.approx(
        one.std * math.sqrt(1000) * 1e-12)


def test_cost_model_json_round_trip(tmp_path):
    model = builtin_model("skylake")
    model.entries["check.dfall"].samples.extend([150.0, 210.0])
    path = tmp_path / "model.json"
    model.dump(str(path))
    back = CostModel.load(str(path))
    assert back.arch == "skylake"
    assert back.entries["check.dfall"].samples == [150.0, 210.0]
    assert back.entries["alu"].mean_pj \
        == model.entries["alu"].mean_pj
    with pytest.raises(EntError):
        CostModel.from_dict({"arch": "x", "entries": {}})


def test_calibrate_absorbs_profile_payload():
    model = builtin_model("sim45nm")
    before = model.entries["check.dfall"].mean_pj
    payload = {
        "energy_by_label": {"check.dfall@3:4": 2e-9,
                            "node.Var": 1e-9,
                            "zero.count": 5.0},
        "profile": {"labels": {
            "check.dfall@3:4": {"count": 10},
            "node.Var": {"count": 1000},
            "zero.count": {"count": 0},
        }},
    }
    absorbed = model.calibrate(payload)
    assert absorbed == 2  # the zero-count label contributes nothing
    # 2e-9 J over 10 execs = 0.2 nJ = 200 pJ per exec
    assert model.entries["check.dfall"].mean_pj \
        == pytest.approx(200.0)
    assert model.entries["check.dfall"].mean_pj != before
    assert model.entries["node"].samples == [pytest.approx(1.0)]


def test_entry_distribution_prefers_samples():
    prior = CostEntry(mean_pj=50.0, rel_std=0.1)
    assert prior.distribution().mean == 50.0
    assert prior.distribution().std == pytest.approx(5.0)
    measured = CostEntry(mean_pj=50.0, rel_std=0.1,
                         samples=[10.0, 30.0])
    dist = measured.distribution()
    assert dist.mean == pytest.approx(20.0) and dist.n == 2
    degenerate = CostEntry(mean_pj=50.0, rel_std=0.1,
                           samples=[40.0, 40.0])
    dist = degenerate.distribution()
    assert dist.mean == pytest.approx(40.0)
    assert dist.std == pytest.approx(4.0)  # falls back to rel_std


# ---------------------------------------------------------------------------
# Pareto


def _cand(name, energy, risk):
    return Candidate(assignment={"C": name}, energy=Uncertain(energy),
                     risk=risk)


def test_dominates_and_frontier():
    a = _cand("a", 1.0, 0.5)
    b = _cand("b", 2.0, 0.6)
    c = _cand("c", 0.5, 0.9)
    d = _cand("d", 1.0, 0.5)  # exact tie with a: both kept
    assert dominates(a, b)
    assert not dominates(a, c) and not dominates(c, a)
    assert not dominates(a, d) and not dominates(d, a)
    frontier = pareto_frontier([b, a, c, d])
    names = [f.assignment["C"] for f in frontier]
    assert "b" not in names
    assert set(names) == {"a", "c", "d"}
    # deterministic order: sorted by (energy, risk, name)
    assert frontier == pareto_frontier([d, c, b, a])


def test_candidate_name_and_dict():
    cand = Candidate(assignment={"B": None, "A": "low"},
                     energy=Uncertain(1.0, 0.01), risk=0.25)
    assert cand.name == "A=low,B=?"
    data = cand.as_dict()
    assert data["assignment"] == {"A": "low", "B": None}
    assert data["energy_j"]["mean"] == 1.0
    assert data["risk"] == 0.25


# ---------------------------------------------------------------------------
# The pin rewriter


PINNABLE = """
modes { low <= high; }
class Worker@mode<?X> {
    int load;
    attributor {
        if (load > 10) { return high; }
        return low;
    }
    Worker(int load) { this.load = load; }
    @mode<?Y> int step()
    attributor { return high; }
    {
        return load;
    }
}
class Main { void main() {
    Worker dw = new Worker@mode<?>(3);
    Worker w = snapshot dw;
    Sys.print("" + w.step());
} }
"""


def test_pin_classes_rewrites_only_the_class_attributor():
    pinned = pin_classes(PINNABLE, {"Worker": "low"})
    assert "attributor { return low; }" in pinned
    # The method-level attributor is untouched.
    assert "attributor { return high; }" in pinned
    assert "load > 10" not in pinned
    check_program(pinned)  # still a valid program


def test_pin_classes_is_identity_for_empty_assignment():
    assert pin_classes(CRAWLER, {}) == CRAWLER
    assert pin_classes(CRAWLER, {"Site": None, "Agent": None}) \
        == CRAWLER


def test_pin_classes_crawler_variants_typecheck():
    for cls, mode in (("Site", "energy_saver"),
                      ("Agent", "managed")):
        pinned = pin_classes(CRAWLER, {cls: mode})
        assert f"attributor {{ return {mode}; }}" in pinned
        check_program(pinned)
    both = pin_classes(CRAWLER, {"Site": "managed",
                                 "Agent": "energy_saver"})
    check_program(both)
    assert both.count("attributor { return") == 2


def test_pin_classes_unknown_class_raises():
    with pytest.raises(EntError):
        pin_classes(CRAWLER, {"Nonexistent": "managed"})
    # Main has no attributor at all.
    with pytest.raises(EntError):
        pin_classes(CRAWLER, {"Main": "managed"})


# ---------------------------------------------------------------------------
# Interval-valued renderers


def _profiled_crawler():
    from repro.lang.interp import Interpreter, InterpOptions
    from repro.obs.prof import Profiler
    from repro.obs.report import energy_attribution
    from repro.obs.tracer import Tracer
    from repro.platform.systems import make_platform

    checked = check_program(CRAWLER)
    profiler = Profiler("walk")
    tracer = Tracer()
    platform = make_platform("A", seed=0)
    interp = Interpreter(checked, platform=platform,
                         options=InterpOptions(engine="walk"),
                         seed=0, tracer=tracer, profiler=profiler)
    interp.run([])
    _scope, attribution = energy_attribution(tracer.events())
    return profiler.profile, attribution


def test_energy_intervals_match_point_estimates():
    from repro.obs.prof import energy_by_label

    profile, attribution = _profiled_crawler()
    model = builtin_model()
    intervals = energy_intervals(profile, attribution, model)
    points = energy_by_label(profile, attribution)
    assert set(intervals) == set(points)
    for label, value in intervals.items():
        assert value.mean == pytest.approx(points[label])
        assert value.std >= 0.0
    # Hot labels are known more tightly (relative std shrinks with
    # execution count).
    hot = intervals["node.Var"]
    counts = {name: h.count
              for name, h in profile.registry.histograms.items()}
    assert counts["node.Var"] > 100
    assert hot.std / hot.mean < model.relative_std("node.Var")


def test_render_profile_formats_intervals():
    from repro.obs.prof import render_profile

    profile, attribution = _profiled_crawler()
    intervals = energy_intervals(profile, attribution, builtin_model())
    text = render_profile(profile, top=5, checks=True,
                          energy=intervals)
    assert "±" in text
    assert "joules" in text
    # Plain floats still render without an interval.
    plain = render_profile(profile, top=5,
                           energy={"node.Var": 1.25})
    assert "1.250000" in plain and "±" not in plain.split(
        "node.Var")[1].splitlines()[0]


def test_render_prometheus_interval_gauges():
    from repro.obs.export import render_prometheus
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.gauges['energy "total"\\j'] = Uncertain(2.0, 0.01)
    registry.gauges["plain"] = 1.5
    text = render_prometheus(registry)
    lines = text.splitlines()
    assert lines[0] == "# TYPE repro_gauge gauge"
    # Label escaping survives the interval path.
    assert any('energy \\"total\\"\\\\j' in line for line in lines)
    mean_line = [l for l in lines
                 if 'name="plain"' in l][0]
    assert mean_line.endswith("1.5")
    lo = [l for l in lines if 'ci="lo"' in l]
    hi = [l for l in lines if 'ci="hi"' in l]
    assert len(lo) == 1 and len(hi) == 1
    half = 2.575829 * 0.1
    assert float(lo[0].rsplit(" ", 1)[1]) \
        == pytest.approx(2.0 - half, rel=1e-6)
    assert float(hi[0].rsplit(" ", 1)[1]) \
        == pytest.approx(2.0 + half, rel=1e-6)
    # Exposition format: every non-comment line is "series value".
    for line in lines[1:]:
        series, value = line.rsplit(" ", 1)
        float(value)
        assert series.startswith("repro_gauge{name=")


def test_profile_merge_interval_aggregation_is_order_independent():
    from repro.obs.prof import Profile

    profile, attribution = _profiled_crawler()
    other = Profile(engine="walk")
    other.registry.histogram("node.Var").record(0.5)
    other.mode_time[("node.Var", "managed")] = 0.5
    other.registry.histogram("extra.label").record(0.25)
    other.mode_time[("extra.label", "managed")] = 0.25

    ab = Profile(engine="walk")
    ab.merge(profile)
    ab.merge(other)
    ba = Profile(engine="walk")
    ba.merge(other)
    ba.merge(profile)

    model = builtin_model()
    ia = energy_intervals(ab, attribution, model)
    ib = energy_intervals(ba, attribution, model)
    assert set(ia) == set(ib)
    for label in ia:
        assert ia[label].mean == pytest.approx(ib[label].mean)
        assert ia[label].std == pytest.approx(ib[label].std)


# ---------------------------------------------------------------------------
# Per-class analysis rollup (the `repro analyze --json` satellite)


def test_analyze_by_class_rollup_regression():
    from repro.analysis import analyze_program

    report = analyze_program(check_program(CRAWLER),
                             file="crawler.ent")
    data = report.as_dict()
    assert "by_class" in data
    rollup = data["by_class"]
    assert "Site" in rollup and "Agent" in rollup
    site = rollup["Site"]
    # Residual obligations all target Site (its attributor depends on
    # runtime state); Agent's checks are planner-elided.
    assert site["counts"]["residual"] == 3
    assert "dfall@57:16" in site["residual_sites"]
    assert "snapshot_bound@56:18" in site["residual_sites"]
    agent = rollup["Agent"]
    assert agent["counts"]["residual"] == 0
    assert agent["counts"]["elided"] >= 3
    assert "dfall@66:44" in agent["elided_sites"]
    # The rollup is JSON-serializable and keyed in sorted order.
    assert list(rollup) == sorted(rollup)
    json.dumps(data)


# ---------------------------------------------------------------------------
# AdviseConfig plumbing


def test_advise_config_defaults():
    cfg = AdviseConfig()
    assert cfg.arch == "sim45nm"
    assert cfg.batteries == (1.0,)
    assert cfg.runs >= 1 and cfg.samples >= 1
    assert cfg.jobs == 1
