"""Counters, streaming histograms, and trace-derived metrics.

The primitives (:class:`Counter`, :class:`Histogram`) are freestanding
and cheap enough to update on hot paths; :func:`trace_metrics` derives
a full registry from a recorded event stream instead — event-kind
counters, the attributor decision distribution, dfall outcomes, span
latency histograms, and per-mode dwell-time gauges.

The mode-timeline math lives here too (:func:`mode_timeline`,
:func:`dwell_times`): a timeline is reconstructed per *scope* from
``ModeTransitionEvent`` records, and :mod:`repro.obs.report` builds its
energy attribution on top of it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import ModeTransitionEvent, Span, TraceEvent

__all__ = ["Counter", "Histogram", "MetricsRegistry", "trace_metrics",
           "transition_scopes", "mode_timeline", "dwell_times"]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"Counter.inc is monotonic: amount must be >= 0, "
                f"got {amount} (counter {self.name!r})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total into this one."""
        self.value += other.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


#: Default latency buckets: 1 µs to ~100 s, geometric (powers of ten
#: with a 1-2-5 subdivision) — wide enough for both wall and sim time.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    base * 10.0 ** exp
    for exp in range(-6, 3)
    for base in (1.0, 2.0, 5.0))


class Histogram:
    """A streaming histogram: fixed bucket bounds, O(1) memory.

    ``record`` keeps count/sum/min/max exactly and bins the value into
    the first bucket whose upper bound admits it; ``quantile`` reads an
    upper-bound estimate back off the buckets.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds \
            else DEFAULT_BOUNDS
        if (list(self.bounds) != sorted(self.bounds)
                or any(math.isnan(bound) for bound in self.bounds)):
            raise ValueError("histogram bounds must be sorted and not NaN")
        # One bucket per bound plus an overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # The first bound with ``value <= bound``, else the overflow
        # bucket.  NaN admits no bound, but bisect would place it
        # first.
        if value == value:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
        else:
            self.bucket_counts[-1] += 1

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise merge: quantiles of the union stay exact to the
        same bucket resolution as if every sample had been recorded
        here.  Requires identical bucket bounds."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.name!r} has {len(self.bounds)} bounds, "
                f"{other.name!r} has {len(other.bounds)})")
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the q-quantile (0 <= q <= 1).

        Edge cases are exact: an empty histogram reports 0.0 for any
        ``q``, ``q=0.0`` reports the recorded minimum, and ``q=1.0``
        reports the recorded maximum (so single-sample histograms
        report that sample at both ends).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * self.count
        running = 0
        for index, bucket in enumerate(self.bucket_counts):
            running += bucket
            if running >= rank and bucket:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def as_dict(self) -> Dict[str, object]:
        return {"count": self.count, "sum": self.total,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "mean": self.mean,
                "p50": self.quantile(0.5), "p99": self.quantile(0.99)}


class MetricsRegistry:
    """A namespace of counters, histograms, and gauges."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, float] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        return histogram

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, key-wise.

        Counters add, histograms merge bucket-wise (bounds must match),
        gauges take the other registry's value (last write wins).  The
        operation is commutative and associative up to gauge ordering,
        so parallel workers' registries can be folded back in any
        order.
        """
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)
        for name, value in other.gauges.items():
            self.gauges[name] = value

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "histograms": {name: h.as_dict()
                           for name, h in sorted(self.histograms.items())},
            "gauges": dict(sorted(self.gauges.items())),
        }


# ---------------------------------------------------------------------------
# Mode timelines


def transition_scopes(events: Iterable[TraceEvent]) -> List[str]:
    """Scopes with transitions, most transitions first (ties by name)."""
    counts: Dict[str, int] = {}
    for event in events:
        if isinstance(event, ModeTransitionEvent):
            counts[event.scope] = counts.get(event.scope, 0) + 1
    return sorted(counts, key=lambda s: (-counts[s], s))


def mode_timeline(events: Sequence[TraceEvent],
                  scope: Optional[str] = None
                  ) -> Tuple[Optional[str],
                             List[Tuple[float, Optional[float],
                                        Optional[str]]]]:
    """Reconstruct ``(start, end, mode)`` dwell intervals for a scope.

    With ``scope=None`` the busiest scope is used (an E1/E2 trace's
    ``closure`` timeline, an E3 trace's ``object:Sleeper`` timeline).
    The final interval is open: its end is the last event timestamp in
    the trace (or None for an empty tail).  Returns the chosen scope
    and the interval list.
    """
    events = list(events)
    if scope is None:
        scopes = transition_scopes(events)
        if not scopes:
            return None, []
        scope = scopes[0]
    transitions = [e for e in events
                   if isinstance(e, ModeTransitionEvent)
                   and e.scope == scope]
    if not transitions:
        return scope, []
    end_ts = max(e.ts for e in events)
    intervals: List[Tuple[float, Optional[float], Optional[str]]] = []
    first = transitions[0]
    if first.from_mode is not None and first.ts > min(e.ts for e in events):
        intervals.append((min(e.ts for e in events), first.ts,
                          first.from_mode))
    for current, nxt in zip(transitions, transitions[1:]):
        intervals.append((current.ts, nxt.ts, current.to_mode))
    last = transitions[-1]
    intervals.append((last.ts, end_ts if end_ts > last.ts else None,
                      last.to_mode))
    return scope, intervals


def dwell_times(events: Sequence[TraceEvent],
                scope: Optional[str] = None) -> Dict[str, float]:
    """Seconds spent in each mode, from the scope's timeline."""
    _, intervals = mode_timeline(events, scope)
    out: Dict[str, float] = {}
    for start, end, mode in intervals:
        if end is None or mode is None:
            continue
        out[mode] = out.get(mode, 0.0) + (end - start)
    return out


# ---------------------------------------------------------------------------
# Trace -> metrics


def trace_metrics(events: Sequence[TraceEvent]) -> MetricsRegistry:
    """Derive the standard metrics registry from an event stream."""
    registry = MetricsRegistry()
    for event in events:
        registry.counter(f"events.{event.kind}").inc()
        if event.kind == "attributor":
            registry.counter(
                f"attributor.{event.cls}.{event.mode}").inc()
        elif event.kind == "dfall_check":
            registry.counter(
                "dfall.ok" if event.holds else "dfall.violation").inc()
            # checks-executed vs checks-elided (repro.analysis planner).
            if getattr(event, "elided", False):
                registry.counter("dfall.elided").inc()
            else:
                registry.counter("dfall.executed").inc()
        elif event.kind == "snapshot":
            registry.counter(
                "snapshot.lazy" if event.lazy else "snapshot.copy").inc()
            if not event.ok:
                registry.counter("snapshot.bad_check").inc()
            if getattr(event, "bound_elided", False):
                registry.counter("snapshot.bound_elided").inc()
            else:
                registry.counter("snapshot.bound_executed").inc()
        elif event.kind == "platform_read":
            registry.counter(f"platform_read.{event.signal}").inc()
        elif isinstance(event, Span):
            registry.histogram(f"span.{event.category}").record(event.dur)
    for mode, seconds in dwell_times(events).items():
        registry.set_gauge(f"dwell_s.{mode}", seconds)
    return registry
