"""Cross-engine execution profiler for the ENT engines.

One :class:`Profiler` serves all three execution engines and the
embedded runtime; what differs is only the label vocabulary:

* the register VM bumps ``op.<OPCODE>`` per executed instruction
  (an :data:`~repro.lang.bytecode.OP_PROFILE` pre-instruction is
  woven into the stream by ``instrument`` at lowering time — the
  uninstrumented dispatch loop is untouched);
* the tree walk bumps ``node.<NodeClass>`` / ``stmt.<NodeClass>`` per
  evaluated AST node, so profiles are comparable cross-engine at the
  "what construct is hot" level;
* every engine routes message sends through
  ``Interpreter._invoke`` while profiling (the VM's leaf fast path is
  disabled exactly as it is under tracing), so call counts, call
  stacks (``a;b;c`` flamegraph keys) and per-call-site inline-cache
  counters are engine-invariant;
* the check kernel bumps ``check.<site-id>`` so individual dfall /
  snapshot-bound sites get counts, time, *and* energy.

**Attribution mechanism.**  The profiler keeps one pending interval:
a cell and a start time.  Each ``bump`` stamps the monotonic clock,
records the elapsed interval into the pending cell, then opens the
cell of ``(label, mode, call-stack key)`` with one dict lookup.  A
cell is a latency :class:`~repro.obs.metrics.Histogram`; ``finish``
closes the trailing interval and folds the cell table into the
profile's per-label histograms (bucket-wise merge), per-``(label,
mode)`` time table and per-call-stack time table, resolving mode
names there rather than per event.  Per-label histogram counts are
exact execution counts and the attributed intervals partition wall
time.

**Site IDs.**  :func:`site_id` renders ``<kind>@<line>:<column>`` from
a node's source span — the same coordinates
:class:`repro.analysis.obligations.CheckSite` records, which is what
lets :func:`repro.analysis.report.static_vs_observed` join predicted
and observed checks exactly.  Spanless contexts get symbolic ids that
the diff treats as unlocatable rather than as violations: the boot
invocation (``dfall@?``), and embedded-runtime checks, whose site is a
string (``Class.method``, rendered ``dfall@Class.method``).

**Merging.**  :class:`Profile` is picklable and
:meth:`Profile.merge` is commutative keyed aggregation
(:meth:`~repro.obs.metrics.MetricsRegistry.merge` underneath), so
parallel eval workers stream per-episode profiles back in any
completion order.

The disabled path follows the tracer idiom: hot paths guard with
``if profiler.enabled:`` (or are gated at engine *setup*, not per
instruction), and :data:`NULL_PROFILER` is the shared no-op instance.
See ``docs/PROFILING.md``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from time import perf_counter
from typing import Dict, IO, List, Optional, Tuple, Union

from repro.obs.events import mode_name
from repro.obs.export import opened
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry

__all__ = ["site_id", "ic_class", "Profile", "Profiler", "NullProfiler",
           "NULL_PROFILER", "collapsed_stacks", "profile_chrome_trace",
           "energy_by_label", "render_profile", "write_profile",
           "PROFILE_FORMATS"]

#: The flamegraph stack key when no ENT method is on the stack.
ROOT = "(root)"

PROFILE_FORMATS = ("text", "json", "collapsed", "chrome")


def site_id(kind: str, site) -> str:
    """``<kind>@<line>:<column>`` — the analysis planner's coordinates.

    A string ``site`` is symbolic (``Class.method`` for an embedded
    check, which has no span).  A missing span (or one with no line)
    yields ``<kind>@?``: the boot invocation of ``Main.main`` has no
    call site in the source.
    """
    if isinstance(site, str):
        return f"{kind}@{site}"
    line = getattr(site, "line", None)
    if line is None:
        return f"{kind}@?"
    return f"{kind}@{line}:{getattr(site, 'column', None)}"


def ic_class(entries: int) -> str:
    """Classify an inline cache by how many receiver classes it saw."""
    if entries <= 0:
        return "-"
    if entries == 1:
        return "mono"
    if entries <= 3:
        return "poly"
    return "mega"


class Profile:
    """The merged, picklable result of one or more profiled runs.

    * ``registry`` — one latency histogram per label (``op.*``,
      ``node.*``, ``stmt.*``, ``call.*``, ``check.*``, ``engine.*``);
      a histogram's ``count`` is the label's exact execution count.
    * ``mode_time`` — ``(label, mode name | None) -> seconds``; the
      join key for energy attribution.
    * ``stack_time`` — ``"Cls.m;Cls.n" -> seconds`` collapsed-stack
      table (semicolon-joined ENT call stacks).
    * ``call_sites`` — ``call@line:col -> {name, calls, ic_misses,
      ic_entries}``.
    * ``check_sites`` — ``kind@line:col -> {kind, executed, elided}``.
    """

    __slots__ = ("engine", "registry", "mode_time", "stack_time",
                 "call_sites", "check_sites")

    def __init__(self, engine: Optional[str] = None) -> None:
        self.engine = engine
        self.registry = MetricsRegistry()
        self.mode_time: Dict[Tuple[str, Optional[str]], float] = {}
        self.stack_time: Dict[str, float] = {}
        self.call_sites: Dict[str, Dict[str, object]] = {}
        self.check_sites: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------

    @property
    def total_time(self) -> float:
        """Seconds attributed across all labels (≈ profiled wall time)."""
        return sum(h.total
                   for h in self.registry.histograms.values())

    def labels(self, prefix: Optional[str] = None
               ) -> List[Tuple[str, object]]:
        """``(label, histogram)`` pairs, most total time first."""
        items = [(name, h)
                 for name, h in self.registry.histograms.items()
                 if prefix is None or name.startswith(prefix)]
        items.sort(key=lambda kv: (-kv[1].total, kv[0]))
        return items

    def check_totals(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"executed": n, "elided": n}}`` over all sites."""
        totals: Dict[str, Dict[str, int]] = {}
        for entry in self.check_sites.values():
            bucket = totals.setdefault(entry["kind"],
                                       {"executed": 0, "elided": 0})
            bucket["executed"] += entry["executed"]
            bucket["elided"] += entry["elided"]
        return totals

    # ------------------------------------------------------------------

    def merge(self, other: "Profile") -> None:
        """Keyed aggregation; commutative, so worker profiles can be
        folded back in any completion order."""
        if self.engine is None:
            self.engine = other.engine
        self.registry.merge(other.registry)
        for key, seconds in other.mode_time.items():
            self.mode_time[key] = self.mode_time.get(key, 0.0) + seconds
        for key, seconds in other.stack_time.items():
            self.stack_time[key] = (self.stack_time.get(key, 0.0)
                                    + seconds)
        for sid, entry in other.call_sites.items():
            mine = self.call_sites.get(sid)
            if mine is None:
                self.call_sites[sid] = dict(entry)
            else:
                mine["calls"] += entry["calls"]
                mine["ic_misses"] += entry["ic_misses"]
                mine["ic_entries"] = max(mine["ic_entries"],
                                         entry["ic_entries"])
        for sid, entry in other.check_sites.items():
            mine = self.check_sites.get(sid)
            if mine is None:
                self.check_sites[sid] = dict(entry)
            else:
                mine["executed"] += entry["executed"]
                mine["elided"] += entry["elided"]

    def as_dict(self) -> Dict[str, object]:
        labels = {}
        for name, h in sorted(self.registry.histograms.items()):
            labels[name] = {"count": h.count, "total_s": h.total,
                            "mean_s": h.mean,
                            "p50_s": h.quantile(0.5),
                            "p99_s": h.quantile(0.99)}
        mode_time: Dict[str, Dict[str, float]] = {}
        for (label, mode), seconds in sorted(
                self.mode_time.items(),
                key=lambda kv: (kv[0][0], kv[0][1] or "")):
            mode_time.setdefault(label, {})[mode or "(none)"] = seconds
        return {
            "engine": self.engine,
            "total_time_s": self.total_time,
            "labels": labels,
            "mode_time": mode_time,
            "stacks": dict(sorted(self.stack_time.items())),
            "call_sites": {sid: dict(entry) for sid, entry
                           in sorted(self.call_sites.items())},
            "check_sites": {sid: dict(entry) for sid, entry
                            in sorted(self.check_sites.items())},
            "check_totals": self.check_totals(),
        }


class NullProfiler:
    """The disabled profiler: every operation is a cheap no-op.

    Engines gate instrumentation at *setup* on ``profiler.enabled``
    (bytecode instrumentation, walk-dispatch shadowing), so with this
    instance the engines run their unmodified
    hot paths — zero per-instruction cost.
    """

    enabled = False
    profile = None

    def bump(self, label: str, mode=None) -> None:
        pass

    def push(self, name: str, mode=None) -> None:
        pass

    def pop(self, mode=None) -> None:
        pass

    def call(self, sid: str, name: str) -> None:
        pass

    def ic_miss(self, sid: str, name: str, entries: int) -> None:
        pass

    def check(self, kind: str, site, mode=None) -> None:
        pass

    def check_elided(self, kind: str, site) -> None:
        pass

    def finish(self) -> None:
        pass


#: The shared disabled profiler; one attribute check on guarded paths.
NULL_PROFILER = NullProfiler()


class Profiler:
    """Collects one :class:`Profile` via successive-timestamp bumps."""

    enabled = True

    def __init__(self, engine: Optional[str] = None,
                 clock=perf_counter) -> None:
        self.profile = Profile(engine)
        self._clock = clock
        #: ``(label, mode, stack key) -> Histogram``: every interval
        #: lands in one cell; :meth:`finish` folds the table into the
        #: profile.
        self._cells: Dict[Tuple[str, object, str], Histogram] = {}
        #: The pending interval: its cell (``None`` before the first
        #: bump) and start time.
        self._cell: Optional[Histogram] = None
        self._ts = 0.0
        #: The current stack key, and the callers' keys for ``pop``.
        self._key = ROOT
        self._keys: List[str] = []
        #: ``(caller key, method) -> (call label, callee key)``.
        self._frames: Dict[Tuple[str, str], Tuple[str, str]] = {}
        #: ``(kind, site) -> (check-site entry, check label, site)``.
        self._sites: Dict[Tuple[str, object], Tuple[Dict, str, object]] = {}

    # ------------------------------------------------------------------
    # The hot path

    def bump(self, label: str, mode=None) -> None:
        """Close the pending interval, open ``label``'s."""
        now = self._clock()
        cell = self._cell
        if cell is not None:
            # Histogram.record, inline.
            delta = now - self._ts
            cell.count += 1
            cell.total += delta
            if delta < cell.min:
                cell.min = delta
            if delta > cell.max:
                cell.max = delta
            cell.bucket_counts[bisect_left(DEFAULT_BOUNDS, delta)] += 1
        key = (label, mode, self._key)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = Histogram(label)
        self._cell = cell
        self._ts = now

    def push(self, name: str, mode=None) -> None:
        """Enter an ENT method: count the call label, grow the stack.
        The call label's interval already belongs to the callee's
        stack."""
        caller = self._key
        frame = self._frames.get((caller, name))
        if frame is None:
            frame = self._frames[(caller, name)] = (
                "call." + name,
                name if caller is ROOT else f"{caller};{name}")
        self._keys.append(caller)
        self._key = frame[1]
        self.bump(frame[0], mode)

    def pop(self, mode=None) -> None:
        """Leave an ENT method; the caller resumes."""
        if self._keys:
            self._key = self._keys.pop()
        self.bump("engine.resume", mode)

    # ------------------------------------------------------------------
    # Sites

    def call(self, sid: str, name: str) -> None:
        sites = self.profile.call_sites
        entry = sites.get(sid)
        if entry is None:
            entry = sites[sid] = {"name": name, "calls": 0,
                                  "ic_misses": 0, "ic_entries": 0}
        entry["calls"] += 1

    def ic_miss(self, sid: str, name: str, entries: int) -> None:
        sites = self.profile.call_sites
        entry = sites.get(sid)
        if entry is None:
            entry = sites[sid] = {"name": name, "calls": 0,
                                  "ic_misses": 0, "ic_entries": 0}
        entry["ic_misses"] += 1
        if entries > entry["ic_entries"]:
            entry["ic_entries"] = entries

    def _check_site(self, kind: str, site) -> Tuple[Dict, str, object]:
        """``site``'s entry and label, formatted once per site: a span
        is keyed by identity (the cached tuple holds it, so its id
        stays its own), a symbolic site by its string."""
        key = (kind, site if site.__class__ is str else id(site))
        hit = self._sites.get(key)
        if hit is None:
            sid = site_id(kind, site)
            entry = self.profile.check_sites.setdefault(
                sid, {"kind": kind, "executed": 0, "elided": 0})
            hit = self._sites[key] = (entry, "check." + sid, site)
        return hit

    def check(self, kind: str, site, mode=None) -> None:
        entry, label, _site = self._check_site(kind, site)
        entry["executed"] += 1
        self.bump(label, mode)

    def check_elided(self, kind: str, site) -> None:
        self._check_site(kind, site)[0]["elided"] += 1

    def finish(self) -> None:
        """Close the trailing interval and fold the cell table into the
        profile (call when the run ends).  The table starts empty
        again, so a second call adds nothing and a reused profiler
        starts clean."""
        if self._cell is not None:
            self._cell.record(self._clock() - self._ts)
            self._cell = None
        profile = self.profile
        registry = profile.registry
        mode_time = profile.mode_time
        stack_time = profile.stack_time
        for (label, mode, stack), cell in self._cells.items():
            registry.histogram(label).merge(cell)
            key = (label, mode_name(mode))
            mode_time[key] = mode_time.get(key, 0.0) + cell.total
            stack_time[stack] = stack_time.get(stack, 0.0) + cell.total
        self._cells = {}


# ---------------------------------------------------------------------------
# Derived views


def collapsed_stacks(profile: Profile) -> List[str]:
    """Brendan-Gregg collapsed-stack lines: ``a;b;c <microseconds>``.

    Feed to any flamegraph renderer (``flamegraph.pl``, speedscope,
    inferno).  Sample weights are integer microseconds of attributed
    time.
    """
    lines = []
    for stack, seconds in sorted(profile.stack_time.items()):
        lines.append(f"{stack} {int(round(seconds * 1e6))}")
    return lines


def profile_chrome_trace(profile: Profile) -> Dict[str, object]:
    """An *aggregate* Chrome ``trace_event`` rendering.

    The profiler stores totals, not a timeline, so labels are laid
    end-to-end as complete ("X") events in descending total-time
    order — the track reads as "where did the time go", not "when".
    """
    trace: List[Dict[str, object]] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": f"profile:{profile.engine or '?'} (labels, "
                          f"aggregate)"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
         "args": {"name": "profile: call stacks (aggregate)"}},
    ]
    cursor = 0.0
    for label, hist in profile.labels():
        trace.append({"name": label, "cat": "profile", "ph": "X",
                      "ts": cursor * 1e6, "dur": hist.total * 1e6,
                      "pid": 0, "tid": 0,
                      "args": {"count": hist.count,
                               "mean_us": hist.mean * 1e6}})
        cursor += hist.total
    cursor = 0.0
    for stack, seconds in sorted(profile.stack_time.items(),
                                 key=lambda kv: (-kv[1], kv[0])):
        trace.append({"name": stack, "cat": "stack", "ph": "X",
                      "ts": cursor * 1e6, "dur": seconds * 1e6,
                      "pid": 0, "tid": 1, "args": {}})
        cursor += seconds
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def energy_by_label(profile: Profile,
                    attribution: Dict[str, float]) -> Dict[str, float]:
    """Join the profile's per-``(label, mode)`` time with a per-mode
    energy attribution (:func:`repro.obs.report.energy_attribution`).

    Each mode's joules are distributed over labels proportionally to
    the time they spent executing under that mode, so the label totals
    sum to the attributed energy (modes with no profiled time
    excepted).  Unmoded profile time joins the ``(untracked)`` bucket.
    """
    from repro.obs.report import UNTRACKED

    mode_totals: Dict[str, float] = {}
    for (_label, mode), seconds in profile.mode_time.items():
        key = mode if mode is not None else UNTRACKED
        mode_totals[key] = mode_totals.get(key, 0.0) + seconds
    joules: Dict[str, float] = {}
    for (label, mode), seconds in profile.mode_time.items():
        key = mode if mode is not None else UNTRACKED
        bucket = attribution.get(key)
        total = mode_totals.get(key, 0.0)
        if not bucket or total <= 0.0:
            continue
        joules[label] = (joules.get(label, 0.0)
                         + bucket * (seconds / total))
    return joules


# ---------------------------------------------------------------------------
# Rendering / serialization


def _format_seconds(seconds: float) -> str:
    from repro.obs.report import _format_seconds as fmt
    return fmt(seconds)


def _format_joules(value) -> str:
    """Format one energy cell: a plain float, or anything interval-
    shaped (``mean``/``std`` attributes, e.g.
    :class:`repro.advise.propagate.Uncertain`) as ``mean ± half-width``
    at 99% confidence.  Duck-typed so the profiler has no dependency
    on the advisor."""
    mean = getattr(value, "mean", None)
    if mean is None:
        return f"{value:.6f}"
    std = getattr(value, "std", 0.0)
    if std > 0.0:
        return f"{mean:.6f} ± {2.575829 * std:.6f}"
    return f"{mean:.6f}"


def render_profile(profile: Profile, top: Optional[int] = None,
                   checks: bool = False,
                   energy: Optional[Dict[str, object]] = None) -> str:
    """The plain-text report behind ``repro profile``.

    ``energy`` maps labels to joules — plain floats or interval-valued
    ``Uncertain`` quantities; intervals render as ``mean ± half``.
    """
    from repro.eval.report import render_table

    sections: List[str] = []
    total = profile.total_time
    sections.append(
        f"Profile (engine={profile.engine or '?'}): "
        f"{_format_seconds(total)} attributed")

    labels = profile.labels()
    if top is not None:
        dropped = len(labels) - top
        labels = labels[:top]
    else:
        dropped = 0
    # energy={} still shows the column (requested but nothing metered).
    with_energy = energy is not None
    joules = energy or {}
    headers = ["label", "count", "total", "mean", "share"]
    if with_energy:
        headers.append("joules")
    rows = []
    for name, hist in labels:
        row = [name, hist.count, _format_seconds(hist.total),
               _format_seconds(hist.mean),
               f"{hist.total / total:6.1%}" if total else "-"]
        if with_energy:
            row.append(_format_joules(joules.get(name, 0.0)))
        rows.append(row)
    table = render_table(headers, rows)
    if dropped > 0:
        table += f"\n  ... ({dropped} more labels; raise --top)"
    sections.append("Hot labels:\n" + table)

    if profile.call_sites:
        rows = []
        for sid, entry in sorted(profile.call_sites.items(),
                                 key=lambda kv: (-kv[1]["calls"],
                                                 kv[0])):
            calls = entry["calls"]
            misses = entry["ic_misses"]
            hits = max(calls - misses, 0)
            rows.append([sid, entry["name"], calls, misses,
                         f"{hits / calls:6.1%}" if calls else "-",
                         ic_class(entry["ic_entries"])])
        sections.append("Call sites:\n" + render_table(
            ["site", "method", "calls", "ic miss", "ic hit rate",
             "ic"], rows))

    if checks:
        rows = []
        for sid, entry in sorted(profile.check_sites.items()):
            row = [sid, entry["kind"], entry["executed"],
                   entry["elided"]]
            if with_energy:
                row.append(_format_joules(
                    joules.get("check." + sid, 0.0)))
            rows.append(row)
        headers = ["site", "kind", "executed", "elided"]
        if with_energy:
            headers.append("joules")
        sections.append(
            "Check sites:\n"
            + (render_table(headers, rows) if rows
               else "  (no dynamic checks ran)"))
        totals = profile.check_totals()
        if totals:
            rows = [[kind, bucket["executed"], bucket["elided"]]
                    for kind, bucket in sorted(totals.items())]
            sections.append("Check totals:\n" + render_table(
                ["kind", "executed", "elided"], rows))
    return "\n\n".join(sections)


def write_profile(profile: Profile, target: Union[str, IO[str]],
                  fmt: str = "json") -> None:
    """Serialize a profile ("json", "collapsed", or "chrome")."""
    if fmt not in ("json", "collapsed", "chrome"):
        raise ValueError(f"unknown profile format {fmt!r}; expected "
                         f"one of json, collapsed, chrome")
    with opened(target) as handle:
        if fmt == "json":
            json.dump(profile.as_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        elif fmt == "collapsed":
            for line in collapsed_stacks(profile):
                handle.write(line)
                handle.write("\n")
        else:
            json.dump(profile_chrome_trace(profile), handle)
            handle.write("\n")
