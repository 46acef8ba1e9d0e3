"""The table-driven platform kernels equal the formulas they replace.

``CpuSpec`` precomputes its per-level figures, the ondemand governor
stores its level instead of recomputing it on every read,
``Battery.drain`` clamps without a ``max`` call, and
``Histogram.record`` bisects instead of scanning.  Each is checked
here against the straightforward definition, written out in this
file, for bit-identical results (``float.hex``, so ``-0.0`` and
``0.0`` differ): the fleet digest and every ``results/`` artifact are
pinned byte for byte, so "close" is not enough.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import DEFAULT_BOUNDS, Histogram
from repro.platform.battery import Battery
from repro.platform.cpu import (INTEL_I5, PI2_BCM2836, SNAPDRAGON_808,
                                CpuSpec, OndemandGovernor,
                                PerformanceGovernor)
from repro.platform.systems import SYSTEMS

# ----------------------------------------------------------------------
# CpuSpec


def _ops_formula(spec, level):
    return spec.freqs_ghz[level] * 1.0e9 * spec.ipc


def _idle_formula(spec, level):
    v_max = spec.voltages[-1]
    ratio = spec.voltages[level] / v_max
    return spec.idle_w * ratio * ratio


def _busy_formula(spec, level):
    freq = spec.freqs_ghz[level]
    volt = spec.voltages[level]
    return _idle_formula(spec, level) + spec.dyn_coeff * freq * volt * volt


def _assert_tables_match_formulas(spec):
    for level in range(spec.levels):
        for read, formula in ((spec.ops_per_second, _ops_formula),
                              (spec.idle_power, _idle_formula),
                              (spec.busy_power, _busy_formula)):
            assert read(level).hex() == formula(spec, level).hex()
        assert spec.ops_table[level] == spec.ops_per_second(level)
        assert spec.idle_table[level] == spec.idle_power(level)
        assert spec.busy_table[level] == spec.busy_power(level)
    top = spec.levels - 1
    assert spec.max_power().hex() == _busy_formula(spec, top).hex()


_positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                      allow_infinity=False)
_non_negative = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                          allow_infinity=False)


@st.composite
def cpu_specs(draw):
    levels = draw(st.integers(min_value=1, max_value=6))
    freqs = sorted(draw(st.lists(_positive, min_size=levels,
                                 max_size=levels)))
    voltages = draw(st.lists(_positive, min_size=levels, max_size=levels))
    return CpuSpec(name="drawn", freqs_ghz=tuple(freqs),
                   voltages=tuple(voltages), ipc=draw(_positive),
                   idle_w=draw(_non_negative),
                   dyn_coeff=draw(_non_negative))


class TestCpuSpecTables:
    @pytest.mark.parametrize("spec", [INTEL_I5, PI2_BCM2836,
                                      SNAPDRAGON_808],
                             ids=lambda spec: spec.name)
    def test_shipped_specs(self, spec):
        _assert_tables_match_formulas(spec)

    @given(cpu_specs())
    def test_drawn_specs(self, spec):
        _assert_tables_match_formulas(spec)

    def test_tables_stay_out_of_identity(self):
        # The tables are derived data: equality, hashing and repr are
        # still over the declared fields only, so PlatformConfig rows
        # keep working as cache keys.
        clone = CpuSpec(INTEL_I5.name, INTEL_I5.freqs_ghz,
                        INTEL_I5.voltages, INTEL_I5.ipc, INTEL_I5.idle_w,
                        INTEL_I5.dyn_coeff)
        assert clone == INTEL_I5 and hash(clone) == hash(INTEL_I5)
        assert "table" not in repr(INTEL_I5)
        assert SYSTEMS["A"].cpu is INTEL_I5


# ----------------------------------------------------------------------
# Governors


class _OndemandFromScratch:
    """The ondemand governor with its level recomputed on every read."""

    def __init__(self, levels, up_threshold, window_s):
        self.levels = levels
        self.up_threshold = up_threshold
        self.window_s = window_s
        self.util = 0.0

    def observe(self, busy, duration_s):
        if duration_s <= 0:
            return
        alpha = 1.0 - math.exp(-duration_s / self.window_s)
        target = 1.0 if busy else 0.0
        self.util += alpha * (target - self.util)

    def select_level(self):
        if self.levels == 1:
            return 0
        if self.util >= self.up_threshold:
            return self.levels - 1
        scaled = int(self.util / self.up_threshold * (self.levels - 1))
        return max(0, min(self.levels - 1, scaled))


_observations = st.lists(
    st.tuples(st.booleans(),
              st.one_of(st.floats(min_value=-1.0, max_value=20.0,
                                  allow_nan=False),
                        st.sampled_from([0.0, 1e-9, 0.1, 0.5]))),
    max_size=40)


class TestGovernorLevel:
    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
           st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
           _observations)
    @settings(max_examples=200)
    def test_ondemand_stored_level_equals_recomputation(
            self, levels, up_threshold, window_s, observations):
        governor = OndemandGovernor(levels, up_threshold, window_s)
        reference = _OndemandFromScratch(levels, up_threshold, window_s)
        assert governor.select_level() == reference.select_level()
        for busy, duration in observations:
            governor.observe(busy, duration)
            reference.observe(busy, duration)
            assert governor.utilization.hex() == reference.util.hex()
            assert governor.select_level() == reference.select_level()

    @given(st.integers(min_value=1, max_value=6), _observations)
    def test_performance_level_is_always_the_top(self, levels,
                                                 observations):
        governor = PerformanceGovernor(levels)
        assert governor.select_level() == levels - 1
        for busy, duration in observations:
            governor.observe(busy, duration)
            assert governor.select_level() == levels - 1


# ----------------------------------------------------------------------
# Battery drain


class TestBatteryDrain:
    @given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0),
           st.lists(st.floats(min_value=0.0, max_value=2e6,
                              allow_nan=False), max_size=30))
    def test_clamps_like_max(self, capacity, fraction, drains):
        battery = Battery(capacity, fraction)
        charge = battery.charge_joules
        for joules in drains:
            battery.drain(joules)
            charge = max(0.0, charge - joules)
            assert battery.charge_joules.hex() == charge.hex()


# ----------------------------------------------------------------------
# Histogram buckets


def _linear_bucket(bounds, value):
    """The first bound with ``value <= bound``, else the overflow."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


def _assert_buckets_match(bounds, values):
    histogram = Histogram("h", bounds)
    expected = [0] * (len(histogram.bounds) + 1)
    for value in values:
        histogram.record(value)
        expected[_linear_bucket(histogram.bounds, value)] += 1
        assert histogram.bucket_counts == expected


_bound = st.floats(allow_nan=False, min_value=-1e6, max_value=1e6)


@st.composite
def bounds_and_values(draw):
    bounds = sorted(draw(st.lists(
        st.one_of(_bound, st.sampled_from([-math.inf, math.inf, 0.0,
                                           -0.0])),
        min_size=1, max_size=12)))
    between = [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])
               if math.isfinite(lo) and math.isfinite(hi)]
    specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, -1.0]
    values = draw(st.lists(
        st.one_of(st.sampled_from(bounds),
                  st.sampled_from(between or [0.0]),
                  st.sampled_from(specials),
                  st.floats(allow_nan=True, allow_infinity=True)),
        max_size=30))
    return bounds, values


class TestHistogramBuckets:
    def test_default_bounds_edges(self):
        values = list(DEFAULT_BOUNDS)
        values += [(lo + hi) / 2 for lo, hi in zip(DEFAULT_BOUNDS,
                                                  DEFAULT_BOUNDS[1:])]
        values += [0.0, -0.0, -5.0, 1e-9, 1e6, math.inf, -math.inf,
                   math.nan, 3, -(2 ** 70)]
        _assert_buckets_match(None, values)

    def test_nan_lands_in_overflow(self):
        histogram = Histogram("h", (1.0, 2.0))
        histogram.record(math.nan)
        assert histogram.bucket_counts == [0, 0, 1]

    def test_duplicate_and_infinite_bounds(self):
        _assert_buckets_match((-math.inf, 1.0, 1.0, 2.0, math.inf),
                              [-math.inf, 1.0, 1.5, 2.0, 3.0, math.inf,
                               math.nan])

    def test_nan_bounds_rejected(self):
        for bounds in ((math.nan,), (1.0, math.nan, 3.0)):
            with pytest.raises(ValueError, match="sorted"):
                Histogram("h", bounds)

    @given(bounds_and_values())
    @settings(max_examples=300)
    def test_custom_bounds(self, drawn):
        bounds, values = drawn
        _assert_buckets_match(bounds, values)
