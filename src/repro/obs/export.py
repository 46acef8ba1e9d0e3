"""Trace serialization: JSONL and Chrome ``trace_event`` JSON.

JSONL (one ``as_dict()`` object per line) is the native interchange
format — ``read_jsonl`` reverses ``write_jsonl`` exactly, and the
``repro obs report`` command consumes it.  ``chrome_trace`` renders the
same events in the Trace Event Format that Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` open directly:
spans become complete ("X") events, meter samples become counter ("C")
tracks, and everything else becomes thread-scoped instants ("i").
Timestamps are converted from seconds to the format's microseconds.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, IO, Iterable, List, Sequence, Union

from repro.obs.events import (MeterSampleEvent, Span, TraceEvent,
                              event_from_dict)

__all__ = ["write_jsonl", "read_jsonl", "chrome_trace",
           "write_chrome_trace", "write_trace", "render_prometheus",
           "TRACE_FORMATS"]

TRACE_FORMATS = ("jsonl", "chrome")

#: Synthetic thread ids grouping events into Perfetto tracks.
_TID_SPANS = 0
_TID_RUNTIME = 1
_TID_PLATFORM = 2

_THREAD_NAMES = {
    _TID_SPANS: "spans",
    _TID_RUNTIME: "ent-runtime",
    _TID_PLATFORM: "platform",
}

_PLATFORM_KINDS = frozenset({"platform_read", "meter_sample"})


@contextlib.contextmanager
def opened(target: Union[str, "os.PathLike[str]", IO[str], None],
           mode: str = "w"):
    """A path opened as UTF-8 text for the block (then closed); an open
    handle, or ``None``, as it is."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8") as handle:
            yield handle
    else:
        yield target


def write_jsonl(events: Iterable[TraceEvent],
                target: Union[str, IO[str]]) -> int:
    """Write events as JSON Lines; returns the number written."""
    count = 0
    with opened(target) as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict(),
                                    separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(target: Union[str, IO[str]]) -> List[TraceEvent]:
    """Read a JSONL trace back into typed event objects."""
    events = []
    with opened(target, "r") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


def _instant(event: TraceEvent, tid: int) -> Dict[str, object]:
    args = {key: value for key, value in event.as_dict().items()
            if key not in ("kind", "ts")}
    return {"name": event.kind, "cat": event.kind, "ph": "i", "s": "t",
            "ts": event.ts * 1e6, "pid": 0, "tid": tid, "args": args}


def chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """Render events in the Chrome Trace Event Format (JSON object)."""
    trace_events: List[Dict[str, object]] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
         "args": {"name": name}}
        for tid, name in sorted(_THREAD_NAMES.items())]
    for event in events:
        if isinstance(event, Span):
            trace_events.append({
                "name": event.name, "cat": event.category, "ph": "X",
                "ts": event.ts * 1e6, "dur": event.dur * 1e6,
                "pid": 0, "tid": _TID_SPANS, "args": dict(event.args)})
        elif isinstance(event, MeterSampleEvent):
            trace_events.append({
                "name": "energy (J)", "cat": "meter", "ph": "C",
                "ts": event.ts * 1e6, "pid": 0, "tid": _TID_PLATFORM,
                "args": {"cpu": event.cpu_j,
                         "peripheral": event.peripheral_j,
                         "io": event.io_j, "net": event.net_j,
                         "display": event.display_j}})
            trace_events.append(_instant(event, _TID_PLATFORM))
        elif event.kind in _PLATFORM_KINDS:
            trace_events.append(_instant(event, _TID_PLATFORM))
        else:
            trace_events.append(_instant(event, _TID_RUNTIME))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[TraceEvent],
                       target: Union[str, IO[str]]) -> int:
    """Write a Chrome/Perfetto trace file; returns events written."""
    with opened(target) as handle:
        json.dump(chrome_trace(events), handle)
        handle.write("\n")
    return len(events)


def _prom_label(value: str) -> str:
    """Escape a Prometheus label value per the text exposition format."""
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _prom_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry) -> str:
    """Render a :class:`MetricsRegistry` in the Prometheus text
    exposition format (version 0.0.4).

    Registry metric names are free-form (``op.LOAD``, ``check.dfall@3:4``)
    and so would be illegal Prometheus metric names; they are carried as
    a ``name`` label on three fixed families instead: ``repro_counter``,
    ``repro_gauge``, and ``repro_histogram`` (with the conventional
    ``_bucket``/``_sum``/``_count`` series, cumulative ``le`` buckets,
    and a terminal ``le="+Inf"``).
    """
    lines: List[str] = []
    if registry.counters:
        lines.append("# TYPE repro_counter counter")
        for name in sorted(registry.counters):
            counter = registry.counters[name]
            lines.append(f'repro_counter{{name="{_prom_label(name)}"}} '
                         f"{_prom_float(float(counter.value))}")
    if registry.gauges:
        lines.append("# TYPE repro_gauge gauge")
        for name in sorted(registry.gauges):
            value = registry.gauges[name]
            label = _prom_label(name)
            mean = getattr(value, "mean", None)
            if mean is None:
                lines.append(f'repro_gauge{{name="{label}"}} '
                             f"{_prom_float(float(value))}")
                continue
            # Interval-valued gauge (repro.advise.propagate.Uncertain,
            # duck-typed): the bare series carries the mean, and the
            # 99% bounds ride along under a ``ci`` label so dashboards
            # can band the estimate.
            std = getattr(value, "std", 0.0)
            half = 2.575829 * std
            lines.append(f'repro_gauge{{name="{label}"}} '
                         f"{_prom_float(float(mean))}")
            lines.append(f'repro_gauge{{name="{label}",ci="lo"}} '
                         f"{_prom_float(float(mean - half))}")
            lines.append(f'repro_gauge{{name="{label}",ci="hi"}} '
                         f"{_prom_float(float(mean + half))}")
    if registry.histograms:
        lines.append("# TYPE repro_histogram histogram")
        for name in sorted(registry.histograms):
            histogram = registry.histograms[name]
            label = _prom_label(name)
            cumulative = 0
            for bound, bucket in zip(histogram.bounds,
                                     histogram.bucket_counts):
                cumulative += bucket
                lines.append(
                    f'repro_histogram_bucket{{name="{label}",'
                    f'le="{_prom_float(bound)}"}} {cumulative}')
            lines.append(f'repro_histogram_bucket{{name="{label}",'
                         f'le="+Inf"}} {histogram.count}')
            lines.append(f'repro_histogram_sum{{name="{label}"}} '
                         f"{_prom_float(histogram.total)}")
            lines.append(f'repro_histogram_count{{name="{label}"}} '
                         f"{histogram.count}")
    return "\n".join(lines) + "\n" if lines else ""


def write_trace(events: Sequence[TraceEvent], target: Union[str, IO[str]],
                fmt: str = "jsonl") -> int:
    """Write a trace in the named format ("jsonl" or "chrome")."""
    if fmt == "jsonl":
        return write_jsonl(events, target)
    if fmt == "chrome":
        return write_chrome_trace(events, target)
    raise ValueError(f"unknown trace format {fmt!r}; "
                     f"expected one of {', '.join(TRACE_FORMATS)}")
