"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`SpanRecorder` keeps an explicit span stack and emits one
:class:`repro.obs.events.Span` per closed span into a
:class:`repro.obs.tracer.Tracer`.  Each span's ``args`` carry the op
id, its own id and its parent's id, so the exported Chrome trace keeps
the tree and :func:`self_times` can recover each layer's self time: a
span's duration minus the time its direct children cover.  Spans nest
strictly (one thread, every span closed in ``finally``), so the self
times of one op partition the op's root span; :func:`self_times`
returns the residual so callers can check it.

:class:`Wrappers` installs timing wrappers around the public entry
points of the layers the program does not call through the benchmark
directly — the bytecode lowerer, the JIT compiler, the embedded
runtime, the platform simulator, the fleet's per-device functions and
every registered workload — and removes them again, so untraced ops
run the unmodified program.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.obs.events import Span
from repro.obs.tracer import Tracer

#: Largest span count one op may record; a traced op that would drop
#: spans is a benchmark error (see :meth:`SpanRecorder.end_op`).
CAPACITY = 1 << 21

#: Allowed gap between the sum of an op's self times and its root
#: span's duration: float rounding only.
SELF_TIME_TOLERANCE_S = 1e-6

_clock = time.perf_counter


class SpanRecorder:
    """A span stack feeding a ring-buffer :class:`Tracer`."""

    def __init__(self) -> None:
        self.tracer = Tracer(capacity=CAPACITY, now=_clock)
        self.op = 0
        self._next_id = 1
        self._stack: List[Tuple[int, str, float]] = []
        #: Per-op counters bumped by wrappers (bodies lowered, ...).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Embedded runtimes seen during the current op.
        self.runtimes: Dict[int, object] = {}

    def enter(self, name: str) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append((sid, name, _clock()))

    def leave(self) -> None:
        end = _clock()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self.tracer.emit(Span(ts=start, name=name, dur=end - start,
                              category="layer",
                              args={"op": self.op, "id": sid,
                                    "parent": parent}))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.tracer.clear()
        self.counts = defaultdict(int)
        self.runtimes = {}
        self.enter("bench")

    def end_op(self) -> List[Span]:
        """Close the op's root span and return the op's spans."""
        self.leave()
        if self._stack:
            raise RuntimeError(f"unclosed spans after op {self.op}: "
                               f"{[name for _, name, _ in self._stack]}")
        if self.tracer.dropped:
            raise RuntimeError(f"op {self.op} dropped "
                               f"{self.tracer.dropped} spans")
        return self.tracer.events()


def self_times(spans: List[Span]) -> Tuple[Dict[str, float],
                                           Dict[str, float], float]:
    """``(self seconds by name, inclusive seconds by name, residual)``.

    ``residual`` is the root span's duration minus the sum of all self
    times; it is zero up to float rounding when spans nest properly.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        child_time[span.args["parent"]] += span.dur
    own: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    root = 0.0
    for span in spans:
        own[span.name] += span.dur - child_time[span.args["id"]]
        inclusive[span.name] += span.dur
        if span.args["parent"] == 0:
            root += span.dur
    return dict(own), dict(inclusive), root - sum(own.values())


def _timed(rec: SpanRecorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave()
        if after is not None:
            after(rec, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


class _TimedContext:
    """Times a context manager's ``__enter__`` and ``__exit__`` (not
    the block between them) under one span name."""

    __slots__ = ("rec", "name", "inner")

    def __init__(self, rec: SpanRecorder, name: str, inner) -> None:
        self.rec = rec
        self.name = name
        self.inner = inner

    def __enter__(self):
        self.rec.enter(self.name)
        try:
            return self.inner.__enter__()
        finally:
            self.rec.leave()

    def __exit__(self, *exc):
        self.rec.enter(self.name)
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.rec.leave()


def _note_runtime(rec: SpanRecorder, runtime) -> None:
    rec.runtimes.setdefault(id(runtime), runtime)


def _fold_runtime_stats(rec: SpanRecorder, runtime) -> None:
    """Add a runtime's per-device stats to the op's counters (called
    before ``reset_device`` zeroes them, and at op end)."""
    stats = runtime.stats
    rec.counts["embedded.snapshots"] += stats.snapshots
    rec.counts["embedded.dfall_checks"] += stats.dfall_checks
    rec.counts["embedded.dfall_memo_hits"] += stats.dfall_memo_hits
    rec.counts["embedded.energy_exceptions"] += stats.energy_exceptions


def finish_runtimes(rec: SpanRecorder) -> None:
    for runtime in rec.runtimes.values():
        _fold_runtime_stats(rec, runtime)
    rec.runtimes = {}


class Wrappers:
    """Install/remove the layer wrappers on one :class:`SpanRecorder`."""

    def __init__(self, rec: SpanRecorder) -> None:
        from repro.fleet import service, shard
        from repro.lang import jit, vm
        from repro.platform.battery import Battery
        from repro.platform.systems import Platform
        from repro.runtime.embedded import EntRuntime, ModeCase
        from repro.workloads.registry import ALL_WORKLOADS

        def lowered(rec, args, code):
            rec.counts["bytecode.bodies"] += 1
            rec.counts["bytecode.instructions"] += len(code.instrs)

        reset_device = EntRuntime.reset_device
        snapshot = EntRuntime.snapshot
        booted = EntRuntime.booted

        def reset_wrapper(runtime):
            _note_runtime(rec, runtime)
            _fold_runtime_stats(rec, runtime)
            rec.enter("embedded.reset_device")
            try:
                return reset_device(runtime)
            finally:
                rec.leave()

        def snapshot_wrapper(runtime, *args, **kwargs):
            _note_runtime(rec, runtime)
            rec.enter("embedded.snapshot")
            try:
                return snapshot(runtime, *args, **kwargs)
            finally:
                rec.leave()

        def booted_wrapper(runtime, *args, **kwargs):
            _note_runtime(rec, runtime)
            return _TimedContext(rec, "embedded.booted",
                                 booted(runtime, *args, **kwargs))

        self._patches = [
            (vm, "lower_body", _timed(rec, "bytecode", vm.lower_body,
                                      lowered)),
            (jit, "compile_body", _timed(rec, "jit", jit.compile_body)),
            (EntRuntime, "reset_device", reset_wrapper),
            (EntRuntime, "snapshot", snapshot_wrapper),
            (EntRuntime, "booted", booted_wrapper),
            (ModeCase, "for_object",
             _timed(rec, "embedded.mcase", ModeCase.for_object)),
            (Battery, "drain", _timed(rec, "platform.drain", Battery.drain)),
            (shard, "device_params",
             _timed(rec, "spec", shard.device_params)),
            (shard, "run_device", _timed(rec, "device", shard.run_device)),
            (service, "_fold", _timed(rec, "service.fold", service._fold)),
        ]
        for method in ("reset", "cpu_work", "net_bytes", "sleep"):
            self._patches.append(
                (Platform, method, _timed(rec, f"platform.{method}",
                                          getattr(Platform, method))))
        # Each registered workload's execute/execute_unit, patched on
        # the class that defines it (so inherited ones wrap once).
        owners = set()
        for workload in ALL_WORKLOADS:
            for attr in ("execute", "execute_unit"):
                for cls in type(workload).__mro__:
                    if attr in vars(cls):
                        owners.add((cls, attr))
                        break
        for cls, attr in sorted(owners, key=lambda o: (o[0].__name__,
                                                        o[1])):
            self._patches.append(
                (cls, attr, _timed(rec, "workloads.execute",
                                   vars(cls)[attr])))
        self._saved = [(owner, attr, vars(owner)[attr])
                       for owner, attr, _ in self._patches]

    def install(self) -> None:
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
