"""The check kernel: the two checks mixed typechecking leaves to run time.

:func:`check_dfall` (the waterfall invariant ``dfall(o, m)``) and
:func:`check_bound` (a snapshot's ``check(m, lo, hi, o)``) each own
their ``ModeLattice.up`` verdict, counters, profiler entry, trace event,
hook, failure message, transient blame and ``EnergyException``, and
their planner-elided variant.  The ENT interpreter (every engine) and
the embedded runtime call them; inline probes only count a passing,
unobserved check.  Per-runtime differences are plain arguments: the
trace ``source``, ``silent``, the blame ``provenance``, the hook, and
the profiler ``site`` (a span, or a string such as ``Class.method``).
``rt`` is anything with ``stats``, ``lattice``, ``tracer`` and
``profiler``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import EnergyException
from repro.core.modes import TOP, Mode
from repro.obs.events import DfallCheckEvent, SnapshotEvent
from repro.obs.prof import site_id

__all__ = ["check_dfall", "check_bound"]


def check_dfall(rt, guard: Optional[Mode], sender: Optional[Mode],
                cls: str, method: str, owner: str, site, *,
                source: str, silent: bool, transient: bool = False,
                provenance: Optional[str] = None,
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
                provenance: Optional[str] = None,
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


def _blame(kind: str, site, provenance: Optional[str]) -> str:
    """Transient-mode failure suffix: the failing site and the site
    that tagged the value, so full and transient messages agree up to
    it."""
    origin = provenance if provenance is not None else "construction"
    return f" [transient: site {site_id(kind, site)}; blame {origin}]"
