"""Embedded ENT: the paper's abstractions for plain Python programs.

The full ENT language (with its *static* half of mixed typechecking)
lives in :mod:`repro.lang`.  Porting multi-hundred-KLoC applications
onto a tree-walking interpreter is not realistic, and statically
checking host-language (Python) code would need a type-checker plugin —
exactly the friction the reproduction notes anticipate.  This module
therefore provides ENT's *dynamic* half as an embedded API: modes,
attributors, snapshot (with bounds and the EnergyException), mode cases
and the waterfall invariant, run by the interpreter's own kernel
(:mod:`repro.core.checks`); this adapter only runs attributors and
stores each object's tag.  The paper's 15 benchmarks are written
against this API.

Example::

    rt = EntRuntime.standard(platform)

    @rt.dynamic
    class Agent:
        def attributor(self):
            if rt.ext.battery() >= 0.75:
                return "full_throttle"
            ...
        def work(self, site): ...

    da = Agent()
    agent = rt.snapshot(da)                      # attributor decides
    with rt.booted(agent):                       # boot-mode closure
        agent.work(site)                         # waterfall-checked

Dynamic classes must define an ``attributor`` method returning a mode
(name or :class:`Mode`).  ``ModeCase`` is a descriptor: reading it from
an instance eliminates on the instance's mode (the paper's implicit
mode-case elimination); a failed one raises ``EntRuntimeError``, as in
the ENT engines, which no ``except EnergyException`` swallows.
"""

from __future__ import annotations

import copy
import functools
from typing import Dict, Optional, Union

from repro.core.checks import (NO_DEFAULT, RunStats, check_dfall,
                               eliminate, snapshot)
from repro.core.errors import EnergyException, EntError
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice
from repro.obs.prof import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, attach_platform
from repro.runtime.ext import Ext
from repro.runtime.tagging import TAG_ATTR, ObjectTag, mode_of

__all__ = ["EntRuntime", "ModeCase", "STANDARD_MODES", "THERMAL_MODES",
           "STANDARD_LATTICE", "THERMAL_LATTICE"]

#: The battery-mode chain used across the paper's benchmarks.
STANDARD_MODES = ("energy_saver", "managed", "full_throttle")

#: The temperature-mode chain used by the E3 experiments.
THERMAL_MODES = ("overheating", "hot", "safe")

#: The two chains' lattices, built and validated once: a
#: :class:`ModeLattice` is immutable, so every runtime over a chain
#: (one per E1/E2/E3 episode) shares it.
STANDARD_LATTICE = ModeLattice.linear(list(STANDARD_MODES))
THERMAL_LATTICE = ModeLattice.linear(list(THERMAL_MODES))

ModeLike = Union[Mode, str]


class EntRuntime:
    """The embedded ENT runtime: lattice + mode context + checking.

    Parameters mirror the interpreter's options: ``silent`` suppresses
    ``EnergyException`` (the E1 "silent" build — tagging stays in
    place), ``baseline`` disables tagging bookkeeping and checks
    entirely (the Figure-6 overhead baseline), ``lazy_copy`` enables the
    section-5 copy optimization.
    """

    def __init__(self, lattice: ModeLattice, platform=None,
                 silent: bool = False, baseline: bool = False,
                 lazy_copy: bool = True, tracer=None,
                 profiler=None) -> None:
        self.lattice = lattice
        self.ext = Ext(platform)
        self.silent = silent
        self.baseline = baseline
        self.lazy_copy = lazy_copy
        self.stats = RunStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Check sites in the embedded API have no source spans, so the
        # profiler keys them symbolically (``dfall@Class.method``) —
        # counted and timed, but outside static-vs-observed's scope.
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        if platform is not None:
            attach_platform(self.tracer, platform)
        #: Name -> mode for every lattice member, so an attributor's
        #: mode name resolves with one lookup.
        self._modes_by_name: Dict[str, Mode] = {
            mode.name: mode for mode in lattice.modes}
        self._mode_stack = [TOP]
        self._self_stack = [None]

    # ------------------------------------------------------------------
    # Construction helpers

    @classmethod
    def standard(cls, platform=None, **kwargs) -> "EntRuntime":
        """A runtime over the es <= managed <= full_throttle chain."""
        return cls(STANDARD_LATTICE, platform=platform, **kwargs)

    @classmethod
    def thermal(cls, platform=None, **kwargs) -> "EntRuntime":
        """A runtime over the overheating <= hot <= safe chain.

        ``safe`` is the *greatest* mode: the cooler the CPU, the more
        work the program may boot."""
        return cls(THERMAL_LATTICE, platform=platform, **kwargs)

    @property
    def platform(self):
        return self.ext.platform

    def bind_platform(self, platform) -> None:
        self.ext.bind(platform)
        attach_platform(self.tracer, platform)

    def mode(self, name: ModeLike) -> Mode:
        mode = Mode(name) if isinstance(name, str) else name
        return self.lattice.require(mode)

    # ------------------------------------------------------------------
    # Mode context (the current closure mode)

    @property
    def current_mode(self) -> Mode:
        return self._mode_stack[-1]

    def booted(self, obj_or_mode) -> "_Booted":
        """Run a block in the mode of ``obj_or_mode`` (the boot mode).

        Typically used with a freshly snapshotted "entry" object (the
        paper's Agent): all messaging inside the block is waterfall-
        checked against this mode.  The argument is checked here, when
        ``booted`` is called; entering the block pushes the mode.
        """
        if isinstance(obj_or_mode, (Mode, str)):
            mode = self.mode(obj_or_mode)
        else:
            mode = mode_of(obj_or_mode)
            if mode is None:
                raise EnergyException(
                    "cannot boot from an un-snapshotted dynamic object")
        return _Booted(self, mode)

    # ------------------------------------------------------------------
    # Class decorators

    def dynamic(self, cls=None):
        """Class decorator: a dynamic ENT class (``@mode<?>``).

        The class must define an ``attributor(self)`` method returning
        a mode.  Instances start at mode ``?`` and acquire a concrete
        mode via :meth:`snapshot`.
        """
        def apply(target):
            if not hasattr(target, "attributor"):
                raise EntError(
                    f"dynamic class {target.__name__} must define an "
                    f"attributor method")
            return self._instrument(target, dynamic=True, fixed=None)

        return apply if cls is None else apply(cls)

    def static(self, mode_name: ModeLike):
        """Class decorator: a fixed-mode ENT class (``@mode<m>``)."""
        fixed = self.mode(mode_name)

        def apply(target):
            if hasattr(target, "attributor"):
                raise EntError(
                    f"fixed-mode class {target.__name__} must not define "
                    f"an attributor")
            return self._instrument(target, dynamic=False, fixed=fixed)

        return apply

    def mode_override(self, mode_name: ModeLike):
        """Method decorator: method-level mode characterization.

        The waterfall check for calls to this method uses the override
        mode instead of the receiver's mode (Listing 3's
        ``mediaCrawl``)."""
        override = self.mode(mode_name)

        def apply(func):
            func._ent_mode_override = override
            return func

        return apply

    def _instrument(self, cls, dynamic: bool, fixed: Optional[Mode]):
        cls._ent_runtime = self
        cls._ent_dynamic = dynamic
        cls._ent_fixed_mode = fixed
        original_init = cls.__init__

        @functools.wraps(original_init)
        def init(obj, *args, **kwargs):
            setattr(obj, TAG_ATTR, ObjectTag(fixed, dynamic))
            original_init(obj, *args, **kwargs)

        cls.__init__ = init
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or name in ("attributor",):
                continue
            if callable(attr) and not isinstance(attr, (staticmethod,
                                                        classmethod,
                                                        ModeCase)):
                setattr(cls, name, self._wrap_method(attr))
        return cls

    def _wrap_method(self, func):
        runtime = self
        override: Optional[Mode] = getattr(func, "_ent_mode_override", None)
        method = func.__name__
        up = self.lattice.up
        # Receiver class -> (call-site id, ``Class.method``) for the
        # profiler, formatted once per class.
        sends = {}

        @functools.wraps(func)
        def wrapper(obj, *args, **kwargs):
            stats = runtime.stats
            stats.messages += 1
            if runtime.baseline:
                return func(obj, *args, **kwargs)
            guard = override
            if guard is None:
                tag = getattr(obj, TAG_ATTR, None)
                if tag is not None:
                    guard = tag.mode
            current = runtime._mode_stack[-1]
            if obj is not runtime._self_stack[-1]:
                # Inline dfall probe for the common case: a known
                # receiver mode, nothing observing, and the check
                # holds.  Every other case takes _check_dfall.
                if (guard is not None and not runtime.tracer.enabled
                        and not runtime.profiler.enabled
                        and current in up[guard]):
                    stats.dfall_checks += 1
                else:
                    runtime._check_dfall(guard, current, obj, method)
            closure = guard if guard is not None else current
            traced = runtime.tracer.enabled and closure is not current
            if traced:
                runtime.tracer.mode_transition("closure", current, closure)
            profiled = runtime.profiler.enabled
            if profiled:
                send = sends.get(type(obj))
                if send is None:
                    name = f"{type(obj).__name__}.{method}"
                    send = sends[type(obj)] = (f"call@{name}", name)
                runtime.profiler.call(*send)
                runtime.profiler.push(send[1], closure)
            runtime._mode_stack.append(closure)
            runtime._self_stack.append(obj)
            try:
                return func(obj, *args, **kwargs)
            finally:
                runtime._mode_stack.pop()
                runtime._self_stack.pop()
                if profiled:
                    runtime.profiler.pop(runtime._mode_stack[-1])
                if traced:
                    runtime.tracer.mode_transition(
                        "closure", closure, runtime._mode_stack[-1])

        wrapper._ent_wrapped = True
        return wrapper

    def _check_dfall(self, guard: Optional[Mode], sender: Mode,
                     obj: object, method: str) -> None:
        """The dfall check the method wrapper's probe leaves over."""
        cls = type(obj).__name__
        check_dfall(self, guard, sender, cls, method, cls,
                    f"{cls}.{method}", source="embedded",
                    silent=self.silent)
        if guard is None and not self.silent:
            message = (f"messaging un-snapshotted dynamic object {cls} "
                       f"(method {method}); snapshot first")
            if self.tracer.enabled:
                self.tracer.energy_exception(message)
            raise EnergyException(message)

    # ------------------------------------------------------------------
    # Snapshot

    def snapshot(self, obj, lower: Optional[ModeLike] = None,
                 upper: Optional[ModeLike] = None):
        """The snapshot expression: evaluate the attributor, bound-check
        the resulting mode, and return a mode-tagged (shallow) copy.

        Raises :class:`EnergyException` on a *bad check* unless the
        runtime is silent.  With ``lazy_copy`` the first snapshot tags
        the object in place (section 5)."""
        tag = getattr(obj, TAG_ATTR, None)
        if tag is None or not tag.dynamic:
            raise EntError(
                f"snapshot requires an instance of a dynamic ENT class, "
                f"got {type(obj).__name__}")
        cls = type(obj).__name__
        mode, copied = snapshot(
            self, obj, tag, cls, _attribute, None,
            self.mode(lower) if lower is not None else BOTTOM,
            self.mode(upper) if upper is not None else TOP, cls,
            self._mode_stack[-1], "embedded", self.silent, self.baseline,
            self.lazy_copy)
        if copied is None:
            tag.mode = mode
            return obj
        clone = copy.copy(obj)
        setattr(clone, TAG_ATTR, ObjectTag(mode, True, True, copied))
        return clone

    mode_of = staticmethod(mode_of)

    # ------------------------------------------------------------------
    # Per-device state (fleet-scale sharding)

    def reset_device(self) -> None:
        """Zero the per-device state (a fresh device on this runtime).

        Leaves the runtime as a newly constructed one would be: mode
        stack back to ``$top``, stats cleared.  Shared config (lattice,
        instrumented classes) is kept — that reuse is the fleet's
        batching win.
        """
        self._mode_stack = [TOP]
        self._self_stack = [None]
        self.stats.reset()

    # ------------------------------------------------------------------
    # Mode cases

    def mcase(self, branches: Dict[str, object],
              default: object = NO_DEFAULT) -> "ModeCase":
        """Build a :class:`ModeCase` bound to this runtime; without a
        ``default`` the branches must cover every declared mode."""
        return ModeCase(self, branches, default)


def _attribute(rt: EntRuntime, obj, attributor: None) -> Mode:
    """The kernel's ``attribute``: the mode ``obj.attributor()`` names."""
    result = obj.attributor()
    if isinstance(result, str):
        mode = rt._modes_by_name.get(result)
        if mode is not None:
            return mode
        result = Mode(result)
    if not isinstance(result, Mode) or result not in rt.lattice:
        raise EntError(
            f"attributor of {type(obj).__name__} returned "
            f"{result!r}, which is not a declared mode")
    return result


class _Booted:
    """What :meth:`EntRuntime.booted` returns: entering pushes the boot
    mode (and a ``None`` receiver) on the runtime's stacks, exiting
    pops both, with the same closure transitions as a message send."""

    __slots__ = ("runtime", "mode", "traced")

    def __init__(self, runtime: EntRuntime, mode: Mode) -> None:
        self.runtime = runtime
        self.mode = mode

    def __enter__(self) -> Mode:
        runtime = self.runtime
        mode = self.mode
        self.traced = runtime.tracer.enabled
        if self.traced:
            runtime.tracer.mode_transition(
                "closure", runtime._mode_stack[-1], mode)
        runtime._mode_stack.append(mode)
        runtime._self_stack.append(None)
        return mode

    def __exit__(self, *exc) -> None:
        runtime = self.runtime
        runtime._mode_stack.pop()
        runtime._self_stack.pop()
        if self.traced:
            runtime.tracer.mode_transition(
                "closure", self.mode, runtime._mode_stack[-1])


class ModeCase:
    """A mode case: a tagged union over modes (the paper's ``mcase``).

    Usable two ways:

    * as a plain value: ``depth.select(mode)`` or ``depth.for_object(o)``;
    * as a class attribute of an ENT class, where attribute access from
      an instance performs implicit elimination on the instance's mode::

          @rt.dynamic
          class Site:
              depth = rt.mcase({"energy_saver": 1, "managed": 2,
                                "full_throttle": 3})
              ...
              def crawl(self):
                  d = self.depth      # eliminated on this Site's mode
    """

    def __init__(self, runtime: EntRuntime, branches: Dict[str, object],
                 default: object = NO_DEFAULT) -> None:
        self.runtime = runtime
        self.branches: Dict[Mode, object] = {
            runtime.mode(name): value for name, value in branches.items()}
        self.default = default
        if default is NO_DEFAULT:
            missing = runtime.lattice.declared_modes - set(self.branches)
            if missing:
                names = ", ".join(sorted(m.name for m in missing))
                raise EntError(
                    f"mode case does not cover modes: {names} "
                    f"(add branches or a default)")

    def select(self, mode: Optional[Mode]):
        """Explicit elimination (the paper's ``e ◃ η``)."""
        return eliminate(self.runtime, "embedded", self, mode)

    def for_object(self, obj):
        tag = getattr(obj, TAG_ATTR, None)
        return eliminate(self.runtime, "embedded", self,
                         tag.mode if tag is not None else None)

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        tag = getattr(instance, TAG_ATTR, None)
        mode = tag.mode if tag is not None else None
        if mode is None and self.runtime.baseline:
            # Baseline build keeps behaviour: fall back to the current
            # closure mode.
            mode = self.runtime.current_mode
        return eliminate(self.runtime, "embedded", self, mode)
