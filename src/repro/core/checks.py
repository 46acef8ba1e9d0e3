"""The runtime kernel: what mixed typechecking leaves to run time.

:func:`snapshot` (run the attributor, check the bounds with
:func:`check_bound`, the paper's ``check(m, lo, hi, o)``, then tag in
place or copy), :func:`eliminate` (mode-case elimination) and
:func:`check_dfall` (the waterfall invariant ``dfall(o, m)``) each own
their counters in the one :class:`RunStats` record, trace events and
failure messages; the checks also own their ``ModeLattice.up`` verdict,
profiler entry, hook, transient blame and planner-elided variant.  The
ENT interpreter (every engine) and the embedded runtime call them;
inline probes only count a passing, unobserved check.  Per-runtime
differences are plain arguments: the trace ``source``, ``silent``, the
blame ``provenance``, the hook, the profiler ``site`` (a span, or a
string such as ``Class.method``), and how an attributor runs.  ``rt``
is anything with ``stats``, ``lattice``, ``tracer`` and ``profiler``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, Optional

from repro.core.errors import EnergyException, EntRuntimeError
from repro.core.modes import TOP, Mode
from repro.obs.events import (AttributorEvent, DfallCheckEvent,
                              MCaseElimEvent, SnapshotEvent, mode_name)
from repro.obs.prof import site_id

__all__ = ["RunStats", "NO_DEFAULT", "check_dfall", "check_bound",
           "snapshot", "eliminate"]

#: A mode case's ``default`` when it has no ``default:`` branch (any
#: other value, ``None`` included, is a default).
NO_DEFAULT = object()


@dataclass
class RunStats:
    """Both runtimes' run-time counters.  The embedded runtime has no
    ``steps``, ``objects_created`` or elided checks: those stay 0."""

    steps: int = 0
    messages: int = 0
    dfall_checks: int = 0
    #: Dfall checks the planner proved; ``dfall_checks`` counts executed
    #: ones, so the sum is invariant under elision.
    dfall_elided: int = 0
    snapshots: int = 0
    copies: int = 0
    lazy_tags: int = 0
    bound_checks: int = 0
    #: Bound checks the planner proved (the same split).
    bound_checks_elided: int = 0
    energy_exceptions: int = 0
    mcase_elims: int = 0
    objects_created: int = 0
    #: Checks run as O(1) tag comparisons under ``checks="transient"``;
    #: also counted in ``dfall_checks``/``bound_checks``, so site
    #: counters and the static-vs-observed oracle are mode-independent.
    shallow_checks: int = 0

    #: Always 0 and not a field: no dfall verdict is memoised.  The
    #: benchmark harness still reads it; the ROADMAP's entbench item
    #: deletes it together with its metric.
    dfall_memo_hits: ClassVar[int] = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        self.__init__()  # the generated __init__ restores each default


def check_dfall(rt, guard: Optional[Mode], sender: Optional[Mode],
                cls: str, method: str, owner: str, site, *,
                source: str, silent: bool, transient: bool = False,
                provenance: Optional[tuple] = None,
                hook: Optional[Callable] = None,
                elided: bool = False) -> None:
    """Check a message ``cls.method`` (declared by ``owner``) from
    ``sender`` (``None``: the boot context) to a receiver at ``guard``
    (``None``: un-snapshotted, which is counted and left to the caller
    to raise).  ``hook(guard, sender, holds)`` sees each executed
    check; ``transient`` counts it as shallow; ``elided`` counts a
    check the planner proved instead of running it."""
    stats = rt.stats
    profiler = rt.profiler
    if elided:
        stats.dfall_elided += 1
        if profiler.enabled:
            profiler.check_elided("dfall", site)
    else:
        stats.dfall_checks += 1
        if profiler.enabled:
            profiler.check("dfall", site, sender)
    if guard is None:
        return
    if sender is None:
        sender = TOP
    if transient and not elided:
        stats.shallow_checks += 1
    # An elided check holds: the planner proved it.
    holds = elided or sender in rt.lattice.up[guard]
    tracer = rt.tracer
    if tracer.enabled:
        tracer.emit(DfallCheckEvent(
            ts=tracer.now(), cls=cls, method=method,
            receiver_mode=guard.name, sender_mode=sender.name,
            holds=holds, source=source, elided=elided))
    if hook is not None and not elided:
        hook(guard, sender, holds)
    if not holds and not silent:
        stats.energy_exceptions += 1
        message = (f"waterfall invariant violated: receiver mode "
                   f"{guard.name} > sender mode {sender.name} "
                   f"(method {owner}.{method})")
        if transient:
            message += _blame("dfall", site, provenance)
        if tracer.enabled:
            tracer.energy_exception(message, mode=guard, upper=sender,
                                    source=source)
        raise EnergyException(message, mode=guard, upper=sender)


def check_bound(rt, obj, cls: str, mode: Mode, lower: Mode, upper: Mode,
                site, sender: Optional[Mode], *, fresh: bool,
                source: str, silent: bool, shallow: bool = False,
                transient: bool = False,
                provenance: Optional[tuple] = None,
                hook: Optional[Callable] = None,
                elided: bool = False) -> None:
    """Check that the attributor of ``obj`` (class ``cls``) returned a
    ``mode`` inside ``[lower, upper]``.  ``fresh``: a passing check
    tags ``obj`` in place.  ``shallow``: a transient re-snapshot that
    reads the fixed tag (elided, it has nothing to observe).
    ``hook(obj, mode, lower, upper, ok)`` sees each verdict."""
    stats = rt.stats
    profiler = rt.profiler
    if elided:
        stats.bound_checks_elided += 1
        if profiler.enabled:
            profiler.check_elided("snapshot_bound", site)
        if shallow:
            return
        ok = True
    else:
        stats.bound_checks += 1
        if shallow:
            stats.shallow_checks += 1
        if profiler.enabled:
            profiler.check("snapshot_bound", site, sender)
        up = rt.lattice.up
        ok = mode in up[lower] and upper in up[mode]
    tracer = rt.tracer
    if tracer.enabled:
        tracer.emit(SnapshotEvent(
            ts=tracer.now(), cls=cls, mode=mode.name, lower=lower.name,
            upper=upper.name, ok=ok, lazy=ok and fresh, source=source,
            bound_elided=elided))
    if hook is not None:
        hook(obj, mode, lower, upper, ok)
    if not ok and not silent:
        stats.energy_exceptions += 1
        message = (f"bad check: attributor of {cls} returned {mode.name}, "
                   f"outside [{lower.name}, {upper.name}]")
        if transient:
            message += _blame("snapshot_bound", site, provenance)
        if tracer.enabled:
            tracer.energy_exception(message, mode=mode, lower=lower,
                                    upper=upper, source=source)
        raise EnergyException(message, mode=mode, lower=lower,
                              upper=upper)


def snapshot(rt, obj, tag, cls: str, attribute: Callable, attributor,
             lower: Mode, upper: Mode, site, sender: Optional[Mode],
             source: str, silent: bool, baseline: bool, lazy_copy: bool,
             transient: bool = False, hook: Optional[Callable] = None,
             elided: bool = False):
    """Snapshot ``obj`` (class ``cls``) against ``[lower, upper]`` at
    ``site``.  ``tag`` holds its ``mode`` (None for ``?``),
    ``is_snapshot`` and ``provenance``: an ENT object is its own tag,
    an embedded one carries an ``ObjectTag``.  ``attribute(rt, obj,
    attributor)`` runs the attributor the runtime found.  Under
    ``transient`` a re-snapshot of a tagged object is shallow (the tag
    is fixed for life): no attributor, no copy, the check reads the
    tag.  ``baseline`` only runs the attributor.

    Returns ``(mode, copy)`` for the runtime to store: nothing when
    ``mode`` is None (shallow); ``mode`` in place when ``copy`` is None
    (the kernel has marked ``tag``, unless ``baseline``); else ``mode``
    on a shallow copy whose provenance is ``copy``.  Positional, since
    keyword arguments would cost more than the rest of the call."""
    stats = rt.stats
    stats.snapshots += 1
    tracer = rt.tracer
    previous = mode = tag.mode
    shallow = transient and tag.is_snapshot
    if not shallow:
        mode = attribute(rt, obj, attributor)
        if tracer.enabled:
            tracer.emit(AttributorEvent(ts=tracer.now(), cls=cls,
                                        mode=mode.name, source=source))
        if baseline:
            return mode, None
    up = rt.lattice.up
    if (not elided and hook is None and not tracer.enabled
            and not rt.profiler.enabled
            and mode in up[lower] and upper in up[mode]):
        # A passing, unobserved check only counts.
        stats.bound_checks += 1
        if shallow:
            stats.shallow_checks += 1
    else:
        check_bound(rt, obj, cls, mode, lower, upper, site, sender,
                    fresh=lazy_copy and not tag.is_snapshot,
                    source=source, silent=silent, shallow=shallow,
                    transient=transient, provenance=tag.provenance,
                    hook=hook, elided=elided)
    if shallow:
        return None, None
    if tracer.enabled and mode is not previous:
        tracer.mode_transition(f"object:{cls}", previous, mode)
    provenance = ("snapshot_bound", site)  # formatted only by _blame
    if lazy_copy and not tag.is_snapshot:
        stats.lazy_tags += 1
        tag.is_snapshot = True
        tag.provenance = provenance
        return mode, None
    stats.copies += 1
    return mode, provenance


def eliminate(rt, source: str, mcase, mode: Optional[Mode]):
    """Mode-case elimination ``mcase ◃ mode``: the branch for ``mode``,
    else the ``default`` (``mcase.default`` is :data:`NO_DEFAULT` when
    there is none).  A dynamic ``mode`` (None) or a missing branch
    raises :class:`EntRuntimeError`: programs catch ``EnergyException``
    as the adaptation signal, and a missing branch is not one."""
    rt.stats.mcase_elims += 1
    tracer = rt.tracer
    if tracer.enabled:
        tracer.emit(MCaseElimEvent(ts=tracer.now(), mode=mode_name(mode),
                                   source=source))
    if mode is None:
        raise EntRuntimeError(
            "cannot eliminate a mode case against a dynamic mode; "
            "snapshot the enclosing object first")
    value = mcase.branches.get(mode, mcase.default)
    if value is not NO_DEFAULT:
        return value
    names = ", ".join(sorted(m.name for m in mcase.branches))
    raise EntRuntimeError(f"mode case has no branch for mode {mode.name} "
                          f"(branches: {names})")


def _blame(kind: str, site, provenance: Optional[tuple]) -> str:
    """Transient-mode failure suffix: the failing site and the
    ``(kind, site)`` that tagged the value, so full and transient
    messages agree up to it."""
    origin = (site_id(*provenance) if provenance is not None
              else "construction")
    return f" [transient: site {site_id(kind, site)}; blame {origin}]"
