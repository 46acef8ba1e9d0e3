"""Operational semantics for ENT (paper section 4.2).

A tree-walking interpreter over typechecked programs.  The ENT-specific
behaviour:

* **Closures** ``cl(m, e)`` — every frame carries the mode it executes
  under; invoking a method switches to the receiver's mode (or the
  method's overriding/attributed mode).
* **Snapshot** — evaluates the receiver's attributor, performs the
  ``check(m, lo, hi, o)`` bound test (raising the paper's
  ``EnergyException`` on a *bad check*), and produces a shallow copy
  tagged with the resulting mode.  The section-5 lazy-copy optimization
  tags the first snapshot in place and only copies from the second
  snapshot on.
* **dfall** — the dynamic waterfall invariant is asserted on every
  message; for well-typed programs this never fails (Corollary 1), and
  the interpreter exposes an ``on_message`` hook so tests can verify it.
  Both checks run in :mod:`repro.core.checks`, shared with the
  embedded runtime.
* **Mode cases** — eliminated implicitly against the enclosing object's
  mode, or explicitly via ``mselect``.

Run-time configurations used by the evaluation harness:

* ``silent=True`` — the E1 baseline that "ignores the EnergyException":
  bound checks always pass (tagging remains in place).
* ``baseline=True`` — the Figure-6 overhead baseline: no copy/tag
  bookkeeping and no bound checks; attributors still run so program
  behaviour is preserved.

Hot-path engineering (all behaviour-transparent; see
``docs/PERFORMANCE.md``):

* statement/expression dispatch is a type-keyed table rather than an
  ``isinstance`` ladder;
* variable reads branch on the typechecker's ``resolved_kind``
  annotation instead of re-discovering what a name means on every
  evaluation;
* method and attributor lookup, an object's field list and its mode
  bindings come from the class table's memos
  (:class:`~repro.lang.types.ClassTable`), the same inheritance model
  the typechecker uses;
* every dfall verdict and bound check is one probe of the mode
  lattice's precomputed upward closure (``ModeLattice.up``), in the
  kernel and in the inline passing-check probes alike;
* implicit mode-case elimination is the typechecker's decision
  (``implicit_elim``): only the handlers of the node kinds that can be
  mode-case typed (variable and field reads, calls, ``mcase``
  literals) test for it, each at the mode it already holds — a field
  read at its owner's, anything else at the frame's — so no other
  node pays a mode-case test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.checks import (NO_DEFAULT, RunStats, check_dfall,
                               eliminate, snapshot)
from repro.core.errors import (BadCastError, EnergyException,
                               EntRuntimeError, FuelExhausted, StuckError)
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice
from repro.obs.prof import NULL_PROFILER, site_id
from repro.obs.tracer import NULL_TRACER, attach_platform
from repro.lang import ast_nodes as ast
from repro.lang import types as ty
from repro.lang.engines import resolve_engine
from repro.lang.natives import (NATIVE_STATIC_CLASSES, NativeRef,
                                call_non_object)
from repro.lang.typechecker import CheckedProgram
from repro.lang.types import DYN, ClassInfo, MethodInfo, ModeAtom, ObjectType
from repro.lang.values import MCaseV, ObjectV

__all__ = ["Interpreter", "InterpOptions", "NullPlatform", "run_source"]


class NullPlatform:
    """Default platform: a pure accounting stub with full battery.

    Real platforms (:mod:`repro.platform.systems`) implement the same
    interface backed by battery/thermal/CPU models.
    """

    def __init__(self) -> None:
        self.work_units = 0.0
        self.io_total = 0.0
        self.net_total = 0.0
        self.slept = 0.0
        self._clock = 0.0

    def battery_fraction(self) -> float:
        return 1.0

    def cpu_temperature(self) -> float:
        return 45.0

    def cpu_work(self, units: float) -> None:
        self.work_units += units
        self._clock += units * 1e-6

    def io_bytes(self, count: float) -> None:
        self.io_total += count
        self._clock += count * 1e-8

    def net_bytes(self, count: float) -> None:
        self.net_total += count
        self._clock += count * 1e-7

    def sleep(self, seconds: float) -> None:
        self.slept += seconds
        self._clock += seconds

    def now(self) -> float:
        return self._clock


@dataclass
class InterpOptions:
    silent: bool = False
    baseline: bool = False
    lazy_copy: bool = True
    fuel: Optional[int] = None
    #: Enable the VM's and the JIT's per-call-site inline caches (the
    #: walk engine keeps none).  Semantics are identical with the flag
    #: off; it exists so the transparency tests can compare cached and
    #: uncached runs bit-for-bit.
    inline_caches: bool = True
    #: Honour the ``elide_dfall`` / ``elide_bound`` annotations written
    #: by :mod:`repro.analysis` (the elision planner).  A no-op unless
    #: the planner ran over the AST; ignored under ``silent`` and
    #: ``baseline`` (those builds change check semantics, so the
    #: planner's facts no longer entail the guards).
    elide_checks: bool = True
    #: Execution engine: ``"walk"`` (tree walk), ``"vm"`` (register
    #: bytecode; see ``docs/VM.md``) or ``"jit"`` (the VM plus the
    #: trace-JIT tier; see ``repro.lang.jit``).  ``None`` means the
    #: default, ``walk``.  All three engines are observably identical
    #: up to ``steps``; the differential suite in
    #: ``tests/property/test_vm_agreement.py`` enforces it.
    engine: Optional[str] = None
    #: Check depth: ``"full"`` runs the paper's deep checks;
    #: ``"transient"`` collapses re-snapshot bound checks and dfall
    #: guards to O(1) mode-tag comparisons with blame provenance
    #: (``repro run --checks transient``; see docs/ANALYSIS.md).
    #: Transient agrees with full on programs whose checks pass; on a
    #: failing check it raises the same exception class with the
    #: originating snapshot/cast site appended to the message.
    checks: str = "full"

    def __post_init__(self) -> None:
        resolve_engine(self.engine)  # an unknown engine fails here
        if self.checks not in ("full", "transient"):
            raise ValueError(f"unknown checks {self.checks!r}; "
                             f"expected one of: full, transient")


#: Sentinel distinguishing "the body fell off the end" from an explicit
#: ``return`` of any value (including ``None``) — attributor error
#: messages depend on the difference.
_NO_RETURN = object()


class _Labels(dict):
    """The walk's profiler label per AST node class, built on first
    use: ``prefix`` + the class name."""

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, cls) -> str:
        label = self[cls] = self.prefix + cls.__name__
        return label


_NODE_LABELS = _Labels("node.")
_STMT_LABELS = _Labels("stmt.")


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: object) -> None:
        self.value = value


class _Frame:
    """One activation record.  A ``__slots__`` class (not a dataclass):
    the interpreter creates one per message send.

    The tree walk keeps a scope chain of dicts in ``locals``.
    """

    __slots__ = ("this_obj", "mode_env", "current_mode", "locals")

    def __init__(self, this_obj: Optional[ObjectV],
                 mode_env: Dict[str, Optional[Mode]],
                 current_mode: Optional[Mode],
                 locals: Optional[List[Dict[str, object]]] = None) -> None:
        self.this_obj = this_obj
        self.mode_env = mode_env
        self.current_mode = current_mode
        self.locals = [] if locals is None else locals

    def push(self) -> None:
        self.locals.append({})

    def pop(self) -> None:
        self.locals.pop()

    def declare(self, name: str, value: object) -> None:
        self.locals[-1][name] = value

    def lookup(self, name: str):
        for frame in reversed(self.locals):
            if name in frame:
                return True, frame[name]
        return False, None

    def assign(self, name: str, value: object) -> bool:
        for frame in reversed(self.locals):
            if name in frame:
                frame[name] = value
                return True
        return False


def _attribute(interp: "Interpreter", value: ObjectV,
               owner: ClassInfo) -> Mode:
    """The kernel's ``attribute``: ``owner``'s attributor on ``value``."""
    return interp._run_attributor_body(
        owner.decl.attributor,
        _Frame(this_obj=value, mode_env=value.bindings[owner.name],
               current_mode=BOTTOM),
        value.class_info.name)


def _java_div(a, b):
    if b == 0:
        raise EntRuntimeError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        return int(a / b)  # Java truncating division
    return a / b


def _java_mod(a, b):
    if b == 0:
        raise EntRuntimeError("modulo by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a - int(a / b) * b
    return a % b


#: Arithmetic/comparison operators on numeric operands; ``/`` and ``%``
#: keep Java semantics (truncation toward zero, explicit zero checks).
_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _java_div,
    "%": _java_mod,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Interpreter:
    """Evaluates a typechecked ENT program."""

    def __init__(self, checked: CheckedProgram,
                 platform=None,
                 options: Optional[InterpOptions] = None,
                 seed: int = 0, tracer=None, profiler=None) -> None:
        self.checked = checked
        self.table = checked.table
        self.lattice: ModeLattice = checked.lattice
        self.platform = platform if platform is not None else NullPlatform()
        self.options = options or InterpOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            attach_platform(self.tracer, self.platform)
        # Set before engine wiring: the VM reads ``profiler.enabled``
        # when deciding its fast-path gates.
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.stats = RunStats()
        self.output: List[str] = []
        self.rng = random.Random(seed)
        #: Optional instrumentation: called as
        #: ``on_message(receiver_mode, sender_mode, holds)`` before every
        #: user-object message (Corollary 1 tests).
        self.on_message: Optional[Callable] = None
        #: Called as ``on_snapshot(obj, mode, lower, upper, ok)``.
        self.on_snapshot: Optional[Callable] = None
        # ---- run-time caches (see docs/PERFORMANCE.md) ----------------
        #: Mode constants by name — static lattice data, always on.
        self._mode_by_name: Dict[str, Mode] = {
            m.name: m for m in self.lattice.modes}
        #: Divergence bound and engine selection, fixed at construction
        #: (one attribute load instead of two on the per-node paths).
        self._fuel = self.options.fuel
        self.engine = engine = resolve_engine(self.options.engine)
        # Transient checking (``--checks transient``): a re-snapshot of
        # an already-tagged object skips the attributor and the copy and
        # only probes the tag against its bounds.  Meaningless under
        # baseline (no checks run at all).  Computed before the VM is
        # constructed: bytecode lowering and the VM's fast-path gates
        # read it.
        self._transient = (self.options.checks == "transient"
                           and not self.options.baseline)
        self._vm = None
        if engine == "vm" or engine == "jit":
            from repro.lang.vm import VM, JITVM
            self._vm = JITVM(self) if engine == "jit" else VM(self)
            self._call_body = self._vm.call_body
        else:
            self._call_body = self._call_body_walk
        # Planner-driven check elision, fixed at construction.  Off
        # under silent (failed checks are *allowed* there, so snapshot
        # facts are not enforced) and baseline (no checks exist to
        # elide).
        opts = self.options
        self._elide_on = (opts.elide_checks and not opts.silent
                          and not opts.baseline)
        if self.profiler.enabled:
            self._install_profiling()

    def _install_profiling(self) -> None:
        """Shadow the hot dispatch methods with profiled wrappers.

        Instance-attribute shadowing is the zero-cost-when-disabled
        mechanism for the walk engine: the class methods stay
        untouched, so an unprofiled interpreter pays nothing.  The
        walk's ``self._eval`` lookups and the VM's ``interp._invoke``
        calls resolve the attribute after construction, so the
        wrappers are what every engine binds.
        """
        self._invoke = self._invoke_profiled
        #: ``(id(method), id(call-site span)) -> (site id, method
        #: name)``, formatted once; both objects belong to the checked
        #: program, which outlives this interpreter.
        self._profiled_sends: Dict[tuple, tuple] = {}
        if self.engine == "walk":
            self._eval = self._eval_profiled
            self._eval_leaf = self._eval_leaf_profiled
            self._exec_stmt = self._exec_stmt_profiled

    # ------------------------------------------------------------------
    # Entry point

    def run(self, args: Optional[List[str]] = None) -> object:
        """Boot the program: ``cl(⊤, mbody(main, Main⟨⊤⟩))``.

        ENT calls are Python calls on every engine, so unbounded ENT
        recursion (in a method, a constructor or an attributor) ends
        in Python's ``RecursionError``.  It is converted here, once,
        into an :class:`EntRuntimeError`: not an ``EnergyException``,
        so no ENT ``try``/``catch`` can swallow it, and no per-call
        depth counter on the hot paths.  So is ``OverflowError``: ENT's
        ``int`` is unbounded, so a float conversion can overflow.
        """
        try:
            return self._boot(args)
        except RecursionError:
            raise EntRuntimeError("call depth exceeded") from None
        except OverflowError as exc:
            raise EntRuntimeError(
                f"numeric overflow: {exc.args[-1]}") from None
        finally:
            # Fold the profile however the run ended, construction of
            # Main included (a no-op when disabled).
            self.profiler.finish()

    def _boot(self, args: Optional[List[str]]) -> object:
        if "Main" not in self.table:
            raise EntRuntimeError("program has no class Main")
        boot_frame = _Frame(this_obj=None, mode_env={}, current_mode=TOP)
        boot_frame.push()
        # Main⟨⊤⟩: the typechecker admits at most one mode parameter.
        main_obj = self._construct(self.table.get("Main"), (TOP,), [],
                                   boot_frame, span=None)
        minfo = self.table.method("Main", "main")
        if minfo is None:
            raise EntRuntimeError("class Main has no method main")
        call_args: List[object] = []
        if len(minfo.param_names) == 1:
            call_args = [list(args or [])]
        elif len(minfo.param_names) > 1 or args:
            if len(minfo.param_names) != (1 if args else 0):
                raise EntRuntimeError(
                    "main must take zero parameters or a single List")
        if self.tracer.enabled:
            self.tracer.mode_transition("closure", None, TOP)
            with self.tracer.span("main", category="program"):
                return self._invoke(main_obj, minfo, call_args,
                                    boot_frame, self_call=False,
                                    span=None)
        return self._invoke(main_obj, minfo, call_args, boot_frame,
                            self_call=False, span=None)

    # ------------------------------------------------------------------
    # Bookkeeping

    def _resolve_atom(self, atom: ModeAtom,
                      frame: _Frame) -> Optional[Mode]:
        """Resolve a mode atom to a concrete mode (None for ``?``)."""
        if isinstance(atom, Mode):
            return atom
        if atom is DYN:
            return None
        return frame.mode_env.get(atom)

    def render(self, value: object) -> str:
        """Java-flavoured string rendering (used by ``+`` and print)."""
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, float) and value.is_integer():
            return f"{value:.1f}"
        if isinstance(value, Mode):
            return value.name
        if isinstance(value, list):
            return "[" + ", ".join(self.render(v) for v in value) + "]"
        try:
            return str(value)
        except ValueError:  # an int past Python's digit limit
            raise EntRuntimeError(
                f"integer too large to print ({value.bit_length()} "
                f"bits)") from None

    def values_equal(self, a: object, b: object) -> bool:
        if isinstance(a, bool) or isinstance(b, bool):
            return a is b
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return a == b
        if isinstance(a, str) and isinstance(b, str):
            return a == b
        if a is None or b is None:
            return a is b
        # Modes are interned; objects and lists compare by identity.
        return a is b

    # ------------------------------------------------------------------
    # Object construction

    def _default_value(self, declared: ty.Type) -> object:
        if declared == ty.INT:
            return 0
        if declared == ty.DOUBLE:
            return 0.0
        if declared == ty.BOOLEAN:
            return False
        return None

    def _construct(self, info: ClassInfo, atoms, arg_values: List[object],
                   frame: _Frame, span) -> ObjectV:
        args = tuple(param.concrete if param.concrete is not None
                     else atom if isinstance(atom, Mode)
                     else self._resolve_atom(atom, frame)
                     for param, atom in zip(info.params, atoms))
        bindings = self.table.bindings(info.name, args)
        obj = ObjectV(info, args, bindings, {})
        self.stats.objects_created += 1
        if self._transient and span is not None and \
                obj.effective_mode is not None:
            # A concrete-mode construction fixes the tag for life: it
            # is the blame provenance for transient check failures on
            # this object (the "cast" arm of the blame map).
            obj.provenance = ("new", span)
        # Field defaults and initializers, superclass-first, each under
        # the bindings of the class that declares it.
        init_frame = _Frame(this_obj=obj, mode_env=bindings[info.name],
                            current_mode=frame.current_mode)
        init_frame.push()
        fields = self.table.all_fields(info.name)
        for finfo in fields:
            obj.fields[finfo.name] = self._default_value(finfo.declared)
        for finfo in fields:
            if finfo.decl is not None and finfo.decl.init is not None:
                init_frame.mode_env = bindings[finfo.owner]
                obj.fields[finfo.name] = self._execute_expr(
                    finfo.decl.init, init_frame)
        # Constructor body.
        ctor = info.decl.constructor if info.decl is not None else None
        if ctor is None:
            if arg_values:
                raise EntRuntimeError(
                    f"class {info.name} has no constructor")
        else:
            if len(arg_values) != len(ctor.params):
                raise StuckError(
                    f"constructor of class {info.name} expects "
                    f"{len(ctor.params)} argument(s), "
                    f"got {len(arg_values)}")
            ctor_frame = _Frame(this_obj=obj, mode_env=bindings[info.name],
                                current_mode=frame.current_mode)
            # Return value (if any) discarded; ``new`` yields the object.
            self._call_body(ctor.body, [p.name for p in ctor.params],
                            ctor_frame, arg_values)
        return obj

    # ------------------------------------------------------------------
    # Messaging

    def _invoke(self, receiver: ObjectV, minfo: MethodInfo,
                args: List[object], frame: _Frame, self_call: bool,
                span, elide_dfall: bool = False) -> object:
        if len(args) != len(minfo.param_names):
            # Before any accounting: the send never happens, so every
            # engine reports identical stats alongside the blame.
            raise StuckError(
                f"method {minfo.owner}.{minfo.name} expects "
                f"{len(minfo.param_names)} argument(s), "
                f"got {len(args)}")
        self.stats.messages += 1
        # The body runs under its declaring class's bindings, copied
        # only when a method-level binding extends them; bodies never
        # mutate them.
        mode_env = receiver.bindings[minfo.owner]
        guard: Optional[Mode]
        closure: Optional[Mode]
        if minfo.mode_param is not None:
            mode_env = dict(mode_env)
            mp = minfo.mode_param
            if mp.concrete is not None:
                guard = closure = mp.concrete
            elif minfo.has_attributor:
                mode = self._eval_method_attributor(receiver, minfo, args)
                guard = closure = mode
                mode_env[mp.var] = mode
            else:
                assert mp.var is not None
                inferred = self._infer_runtime_mode(minfo, args)
                mode_env[mp.var] = inferred
                guard = inferred
                closure = (inferred if inferred is not None
                           else receiver.effective_mode
                           or frame.current_mode)
        elif receiver.class_info.transparent:
            # Mode-transparent (plain Java) receiver: no waterfall
            # check; the body runs at the caller's mode.
            guard = None
            closure = frame.current_mode
            self_call = True  # suppress the dfall check below
        else:
            guard = receiver.effective_mode
            closure = guard if guard is not None else frame.current_mode
        # A check the planner proved (docs/ANALYSIS.md) is skipped but
        # counted, so executed + elided is invariant under elision.
        self._check_dfall(guard, frame.current_mode, self_call, receiver,
                          minfo, span, elide_dfall and self._elide_on)
        traced = (self.tracer.enabled
                  and closure is not frame.current_mode)
        if traced:
            self.tracer.mode_transition("closure", frame.current_mode,
                                        closure)
        body_frame = _Frame(receiver, mode_env, closure)
        assert minfo.decl is not None
        try:
            value = self._call_body(minfo.decl.body, minfo.param_names,
                                    body_frame, args)
        finally:
            if traced:
                self.tracer.mode_transition("closure", closure,
                                            frame.current_mode)
        return value if value is not _NO_RETURN else None

    def _invoke_profiled(self, receiver: ObjectV, minfo: MethodInfo,
                         args: List[object], frame: _Frame,
                         self_call: bool, span,
                         elide_dfall: bool = False) -> object:
        """``_invoke`` plus call-site and call-stack accounting;
        installed by :meth:`_install_profiling` (all engines — the
        VM's leaf fast path is disabled while profiling, so every
        object send lands here, as under tracing)."""
        profiler = self.profiler
        key = (id(minfo), id(span))
        send = self._profiled_sends.get(key)
        if send is None:
            send = self._profiled_sends[key] = (
                site_id("call", span), f"{minfo.owner}.{minfo.name}")
        sid, name = send
        profiler.call(sid, name)
        mode = frame.current_mode
        profiler.push(name, mode)
        try:
            return Interpreter._invoke(self, receiver, minfo, args,
                                       frame, self_call, span,
                                       elide_dfall=elide_dfall)
        finally:
            profiler.pop(mode)

    # ------------------------------------------------------------------
    # Body execution (engine indirection)

    def _call_body_walk(self, block: ast.Block, param_names, frame,
                        args) -> object:
        """Tree-walk a body; returns the returned value or
        ``_NO_RETURN`` when the body falls off the end."""
        if len(args) != len(param_names):
            # Backstop (callers blame arity first): never bind a body
            # with silently dropped or missing parameters.
            raise StuckError(
                f"body expects {len(param_names)} argument(s), "
                f"got {len(args)}")
        frame.locals.append(dict(zip(param_names, args)))
        try:
            self._exec_block(block, frame)
        except _ReturnSignal as signal:
            return signal.value
        return _NO_RETURN

    def _check_dfall(self, guard: Optional[Mode],
                     sender: Optional[Mode], self_call: bool,
                     receiver: ObjectV, minfo: MethodInfo, span,
                     elided: bool = False) -> None:
        """The dynamic waterfall invariant ``dfall(o, m)``, in either
        check mode (an object may always message itself)."""
        if self.options.baseline or self_call:
            return
        silent = self.options.silent
        check_dfall(self, guard, sender, receiver.class_info.name,
                    minfo.name, minfo.owner, span, source="interp",
                    silent=silent, transient=self._transient,
                    provenance=receiver.provenance, hook=self.on_message,
                    elided=elided)
        if guard is None and not silent and not elided:
            raise StuckError(
                f"messaging un-snapshotted dynamic object "
                f"{receiver!r} (method {minfo.name}); a well-typed "
                f"program cannot reach this state")

    def _eval_method_attributor(self, receiver: ObjectV,
                                minfo: MethodInfo,
                                args: List[object]) -> Mode:
        assert minfo.decl is not None and minfo.decl.attributor is not None
        attr_frame = _Frame(this_obj=receiver,
                            mode_env=receiver.bindings[minfo.owner],
                            current_mode=BOTTOM)
        return self._run_attributor_body(minfo.decl.attributor, attr_frame,
                                         f"{minfo.owner}.{minfo.name}",
                                         minfo.param_names, args)

    def _run_attributor_body(self, attributor: ast.AttributorDecl,
                             frame: _Frame, what: str,
                             param_names=(), args=()) -> Mode:
        value = self._call_body(attributor.body, param_names, frame, args)
        if value is _NO_RETURN:
            raise EntRuntimeError(
                f"attributor of {what} did not return a mode")
        if not isinstance(value, Mode):
            raise EntRuntimeError(
                f"attributor of {what} returned a non-mode value: "
                f"{value!r}")
        return value

    def _infer_runtime_mode(self, minfo: MethodInfo,
                            args: List[object]) -> Optional[Mode]:
        """Runtime counterpart of the checker's generic-method inference:
        read the binding off the argument objects' mode tags, as the
        declared parameter class sees them."""
        var = minfo.mode_param.var
        for ptype, value in zip(minfo.param_types, args):
            if isinstance(ptype, ObjectType) and isinstance(value, ObjectV):
                declared_info = self.table.get(ptype.class_name)
                for index, atom in enumerate(ptype.mode_args):
                    if atom == var:
                        param = declared_info.params[index]
                        if param.concrete is not None:
                            return param.concrete
                        # An unrelated class (a type-erased List
                        # element) binds nothing.
                        return value.bindings.get(
                            ptype.class_name, {}).get(param.var)
        return None

    # ------------------------------------------------------------------
    # Statements

    def _execute_expr(self, expr: ast.Expr, frame: _Frame) -> object:
        """Field-initializer entry point (the VM lowers it lazily per
        expr; the walk evaluates it)."""
        if self._vm is not None:
            return self._vm.execute_expr(expr, frame)
        return self._eval(expr, frame)

    def _exec_block(self, block: ast.Block, frame: _Frame) -> None:
        scopes = frame.locals
        scopes.append({})
        try:
            exec_stmt = self._exec_stmt
            for stmt in block.stmts:
                exec_stmt(stmt, frame)
        finally:
            scopes.pop()

    def _exec_stmt(self, stmt: ast.Stmt, frame: _Frame) -> None:
        stats = self.stats
        stats.steps += 1
        fuel = self._fuel
        if fuel is not None and stats.steps > fuel:
            raise FuelExhausted(
                f"evaluation exceeded {fuel} steps (divergence bound)")
        cls = stmt.__class__
        if cls is ast.ExprStmt:
            self._eval(stmt.expr, frame)
            return
        if cls is ast.Assign:
            self._exec_assign(stmt, frame)
            return
        if cls is ast.Return:
            raise _ReturnSignal(self._eval_leaf(stmt.expr, frame)
                                if stmt.expr is not None else None)
        if cls is ast.Block:
            self._exec_block(stmt, frame)
            return
        try:
            handler = _STMT_DISPATCH[cls]
        except KeyError:  # pragma: no cover
            raise StuckError(
                f"unknown statement {type(stmt).__name__}") from None
        handler(self, stmt, frame)

    def _stmt_block(self, stmt: ast.Block, frame: _Frame) -> None:
        self._exec_block(stmt, frame)

    def _stmt_local(self, stmt: ast.LocalVarDecl, frame: _Frame) -> None:
        value = (self._eval(stmt.init, frame)
                 if stmt.init is not None
                 else self._default_value(
                     getattr(stmt, "resolved_type", ty.NULL)))
        frame.declare(stmt.name, value)

    def _stmt_expr(self, stmt: ast.ExprStmt, frame: _Frame) -> None:
        self._eval(stmt.expr, frame)

    def _stmt_if(self, stmt: ast.If, frame: _Frame) -> None:
        if self._truth(self._eval(stmt.cond, frame)):
            self._exec_stmt(stmt.then, frame)
        elif stmt.otherwise is not None:
            self._exec_stmt(stmt.otherwise, frame)

    def _stmt_while(self, stmt: ast.While, frame: _Frame) -> None:
        stats = self.stats
        fuel = self._fuel
        cond = stmt.cond
        body = stmt.body
        cond_is_binary = cond.__class__ is ast.Binary
        body_is_block = body.__class__ is ast.Block
        while True:
            # One guaranteed fuel tick per iteration for the condition,
            # so even ``while (true) {}`` exhausts deterministically.
            stats.steps += 1
            if fuel is not None and stats.steps > fuel:
                raise FuelExhausted(
                    f"evaluation exceeded {fuel} steps (divergence bound)")
            if cond_is_binary:
                value = self._eval_binary(cond, frame)
            else:
                value = self._eval_leaf(cond, frame)
            if value is False:
                break
            if value is not True:
                raise StuckError(f"condition is not a boolean: {value!r}")
            try:
                if body_is_block:
                    stats.steps += 1
                    if fuel is not None and stats.steps > fuel:
                        raise FuelExhausted(
                            f"evaluation exceeded {fuel} steps "
                            f"(divergence bound)")
                    self._exec_block(body, frame)
                else:
                    self._exec_stmt(body, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _stmt_return(self, stmt: ast.Return, frame: _Frame) -> None:
        value = (self._eval_leaf(stmt.expr, frame)
                 if stmt.expr is not None else None)
        raise _ReturnSignal(value)

    def _stmt_break(self, stmt: ast.Break, frame: _Frame) -> None:
        raise _BreakSignal()

    def _stmt_continue(self, stmt: ast.Continue, frame: _Frame) -> None:
        raise _ContinueSignal()

    def _stmt_try(self, stmt: ast.TryCatch, frame: _Frame) -> None:
        try:
            self._exec_stmt(stmt.body, frame)
        except EnergyException as exc:
            frame.push()
            try:
                frame.declare(stmt.exc_var, str(exc))
                self._exec_stmt(stmt.handler, frame)
            finally:
                frame.pop()

    def _stmt_throw(self, stmt: ast.Throw, frame: _Frame) -> None:
        message = self._eval(stmt.expr, frame)
        self.stats.energy_exceptions += 1
        if self.tracer.enabled:
            self.tracer.energy_exception(self.render(message),
                                         source="interp")
        raise EnergyException(self.render(message))

    def _truth(self, value: object) -> bool:
        if isinstance(value, bool):
            return value
        raise StuckError(f"condition is not a boolean: {value!r}")

    def _exec_assign(self, stmt: ast.Assign, frame: _Frame) -> None:
        node = stmt.value
        value = (self._eval_binary(node, frame)
                 if node.__class__ is ast.Binary
                 else self._eval_leaf(node, frame))
        target = stmt.target
        if isinstance(target, ast.Var):
            name = target.name
            # ``resolved_kind`` (from the typechecker) skips the scope
            # walk for field writes; locals shadowing a field resolve as
            # "local", so the direct store is safe.
            if target.resolved_kind == "field":
                this_obj = frame.this_obj
                if this_obj is not None and name in this_obj.fields:
                    this_obj.set_field(name, value)
                    return
            for scope in reversed(frame.locals):
                if name in scope:
                    scope[name] = value
                    return
            this_obj = frame.this_obj
            if this_obj is not None and name in this_obj.fields:
                this_obj.set_field(name, value)
                return
            raise StuckError(f"unknown variable {name!r}")
        assert isinstance(target, ast.FieldAccess)
        obj = self._eval(target.obj, frame)
        if not isinstance(obj, ObjectV):
            raise StuckError(f"cannot assign field of {obj!r}")
        obj.set_field(target.name, value)

    def _exec_foreach(self, stmt: ast.Foreach, frame: _Frame) -> None:
        iterable = self._eval(stmt.iterable, frame)
        if not isinstance(iterable, list):
            raise StuckError("foreach requires a List")
        for element in list(iterable):
            frame.push()
            try:
                frame.declare(stmt.var_name, element)
                self._exec_stmt(stmt.body, frame)
            except _BreakSignal:
                frame.pop()
                break
            except _ContinueSignal:
                frame.pop()
                continue
            else:
                frame.pop()

    # ------------------------------------------------------------------
    # Expressions

    def _eval(self, expr: ast.Expr, frame: _Frame) -> object:
        stats = self.stats
        stats.steps += 1
        fuel = self._fuel
        if fuel is not None and stats.steps > fuel:
            raise FuelExhausted(
                f"evaluation exceeded {fuel} steps (divergence bound)")
        # The hottest node kinds are tested directly before falling back
        # to the dispatch table.
        cls = expr.__class__
        if cls is ast.Var:
            return self._eval_var(expr, frame)
        if cls is ast.IntLit:
            return expr.value
        if cls is ast.Binary:
            return self._eval_binary(expr, frame)
        if cls is ast.MethodCall:
            return self._eval_call(expr, frame)
        try:
            handler = _EVAL_DISPATCH[cls]
        except KeyError:  # pragma: no cover
            raise StuckError(
                f"unknown expression {type(expr).__name__}") from None
        return handler(self, expr, frame)

    def _eval_leaf(self, expr: ast.Expr, frame: _Frame) -> object:
        """Operand fast path: literals and resolved variable reads skip
        the per-node bookkeeping of :meth:`_eval` — the enclosing node
        already paid a fuel tick, so leaf operands ride for free.
        Anything more complex falls back to the full evaluator."""
        cls = expr.__class__
        if cls is ast.IntLit:
            return expr.value
        if cls is ast.Binary:
            return self._eval_binary(expr, frame)
        if cls is ast.Var:
            name = expr.name
            kind = expr.resolved_kind
            if kind == "local":
                for scope in reversed(frame.locals):
                    if name in scope:
                        value = scope[name]
                        if value.__class__ is MCaseV and expr.implicit_elim:
                            return eliminate(self, "interp", value,
                                             frame.current_mode)
                        return value
            elif kind == "field":
                this_obj = frame.this_obj
                if this_obj is not None:
                    fields = this_obj.fields
                    if name in fields:
                        value = fields[name]
                        if value.__class__ is MCaseV and expr.implicit_elim:
                            return self._eliminate_field(value, this_obj,
                                                         frame)
                        return value
            return self._eval_var(expr, frame)
        return self._eval(expr, frame)

    # ------------------------------------------------------------------
    # Profiled walk dispatch (installed by ``_install_profiling``; the
    # class methods above stay untouched so unprofiled runs pay nothing)

    def _eval_profiled(self, expr: ast.Expr, frame: _Frame) -> object:
        self.profiler.bump(_NODE_LABELS[expr.__class__],
                           frame.current_mode)
        return Interpreter._eval(self, expr, frame)

    def _eval_leaf_profiled(self, expr: ast.Expr,
                            frame: _Frame) -> object:
        cls = expr.__class__
        if cls is ast.IntLit or cls is ast.Binary or cls is ast.Var:
            self.profiler.bump(_NODE_LABELS[cls], frame.current_mode)
            return Interpreter._eval_leaf(self, expr, frame)
        # Non-leaf operands take the full (already shadowed) evaluator,
        # which bumps exactly once.
        return self._eval(expr, frame)

    def _exec_stmt_profiled(self, stmt: ast.Stmt,
                            frame: _Frame) -> None:
        self.profiler.bump(_STMT_LABELS[stmt.__class__],
                           frame.current_mode)
        return Interpreter._exec_stmt(self, stmt, frame)

    def _eval_literal(self, expr, frame: _Frame) -> object:
        return expr.value

    def _eval_null(self, expr, frame: _Frame) -> object:
        return None

    def _eval_this(self, expr, frame: _Frame) -> object:
        return frame.this_obj

    def _eval_var(self, expr: ast.Var, frame: _Frame) -> object:
        name = expr.name
        kind = expr.resolved_kind
        if kind == "local":
            for scope in reversed(frame.locals):
                if name in scope:
                    value = scope[name]
                    if value.__class__ is MCaseV and expr.implicit_elim:
                        return eliminate(self, "interp", value,
                                         frame.current_mode)
                    return value
        elif kind == "field":
            this_obj = frame.this_obj
            if this_obj is not None:
                fields = this_obj.fields
                if name in fields:
                    value = fields[name]
                    if value.__class__ is MCaseV and expr.implicit_elim:
                        return self._eliminate_field(value, this_obj,
                                                     frame)
                    return value
        elif kind == "mode":
            mode = self._mode_by_name.get(name)
            if mode is not None:
                return mode
        elif kind == "native":
            return NativeRef(name)
        return self._eval_var_generic(expr, frame)

    def _eliminate_field(self, value: MCaseV, obj: ObjectV,
                         frame: _Frame) -> object:
        """Implicit elimination of a field read: on the mode of the
        object that *encloses* the field (the frame's when it has
        none)."""
        owner = obj.effective_mode
        return eliminate(self, "interp", value,
                         owner if owner is not None else frame.current_mode)

    def _eval_var_generic(self, expr: ast.Var, frame: _Frame) -> object:
        """Dynamic resolution order: locals, this-fields, mode constants,
        native classes.  Fallback for un-annotated ASTs."""
        name = expr.name
        found, value = frame.lookup(name)
        if found:
            if value.__class__ is MCaseV and expr.implicit_elim:
                return eliminate(self, "interp", value, frame.current_mode)
            return value
        this_obj = frame.this_obj
        if this_obj is not None and name in this_obj.fields:
            value = this_obj.fields[name]
            if value.__class__ is MCaseV and expr.implicit_elim:
                return self._eliminate_field(value, this_obj, frame)
            return value
        mode = self._mode_by_name.get(name)
        if mode is not None:
            return mode
        if name in NATIVE_STATIC_CLASSES:
            return NativeRef(name)
        raise StuckError(f"unknown variable {name!r}")

    def _eval_field_access(self, expr: ast.FieldAccess,
                           frame: _Frame) -> object:
        obj = self._eval(expr.obj, frame)
        if isinstance(obj, ObjectV):
            value = obj.get_field(expr.name)
            if value.__class__ is MCaseV and expr.implicit_elim:
                return self._eliminate_field(value, obj, frame)
            return value
        raise StuckError(f"cannot access field {expr.name!r} of {obj!r}")

    def _eval_call(self, expr: ast.MethodCall, frame: _Frame) -> object:
        if expr.receiver is None:
            receiver: object = frame.this_obj
            self_call = True
        else:
            receiver = self._eval_leaf(expr.receiver, frame)
            self_call = (expr.receiver.__class__ is ast.This
                         or receiver is frame.this_obj)
        if receiver.__class__ is ObjectV:
            minfo = self.table.method(receiver.class_info.name, expr.name)
            if minfo is None:
                raise StuckError(
                    f"no method {expr.name!r} on class "
                    f"{receiver.class_info.name}")
            # Every argument evaluates — including over-application
            # extras beyond the parameter list — so the arity blame in
            # ``_invoke`` lands on identical stats across engines.
            args = []
            append = args.append
            for arg in expr.args:
                append(self._eval_binary(arg, frame)
                       if arg.__class__ is ast.Binary
                       else self._eval_leaf(arg, frame))
            value = self._invoke(receiver, minfo, args, frame,
                                 self_call=self_call, span=expr.span,
                                 elide_dfall=expr.elide_dfall)
            if value.__class__ is MCaseV and expr.implicit_elim:
                return eliminate(self, "interp", value, frame.current_mode)
            return value
        args = [self._eval(a, frame) for a in expr.args]
        return call_non_object(self, receiver, expr.name, args)

    def _eval_new(self, expr: ast.New, frame: _Frame) -> object:
        resolved = getattr(expr, "resolved_type", None)
        if resolved == ty.LIST:
            return []
        if resolved is None:
            raise StuckError(
                "new-expression was not typechecked (missing resolution)")
        assert isinstance(resolved, ObjectType)
        info = self.table.get(resolved.class_name)
        arg_values = [self._eval(a, frame) for a in expr.args]
        return self._construct(info, resolved.mode_args, arg_values, frame,
                               expr.span)

    def _eval_cast(self, expr: ast.Cast, frame: _Frame) -> object:
        value = self._eval(expr.expr, frame)
        target = getattr(expr, "resolved_target", None)
        if target is None:
            raise StuckError("cast was not typechecked")
        return self._cast_value(value, target, frame)

    def _cast_value(self, value: object, target: ty.Type,
                    frame: _Frame) -> object:
        """Cast an already-evaluated value (shared with the VM and the
        JIT)."""
        if target == ty.INT:
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                return int(value)
            raise BadCastError(f"cannot cast {value!r} to int")
        if target == ty.DOUBLE:
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                return float(value)
            raise BadCastError(f"cannot cast {value!r} to double")
        if target == ty.BOOLEAN:
            if isinstance(value, bool):
                return value
            raise BadCastError(f"cannot cast {value!r} to boolean")
        if target == ty.STRING:
            if value is None or isinstance(value, str):
                return value
            raise BadCastError(f"cannot cast {value!r} to String")
        if target == ty.LIST:
            if value is None or isinstance(value, list):
                return value
            raise BadCastError(f"cannot cast {value!r} to List")
        if isinstance(target, ObjectType):
            return self._cast_object(value, target, frame)
        raise BadCastError(f"unsupported cast target {target}")

    def _cast_object(self, value: object, target: ObjectType,
                     frame: _Frame) -> object:
        if value is None:
            return None
        if not isinstance(value, ObjectV):
            raise BadCastError(
                f"cannot cast {value!r} to {target}")
        if not self.table.is_subclass(value.class_info.name,
                                      target.class_name):
            raise BadCastError(
                f"bad cast: {value.class_info.name} is not a subclass of "
                f"{target.class_name}")
        target_mode = self._resolve_atom(target.omode, frame)
        if target.omode is DYN:
            return value
        if target_mode is None:
            # Unresolvable variable at run time: class check only.
            return value
        actual = value.effective_mode
        if actual is None or actual != target_mode:
            raise BadCastError(
                f"bad cast: object mode "
                f"{actual.name if actual else '?'} does not match "
                f"{target_mode.name}")
        return value

    def _eval_snapshot(self, expr: ast.Snapshot, frame: _Frame) -> object:
        value = self._eval(expr.expr, frame)
        bounds = getattr(expr, "resolved_bounds", (BOTTOM, TOP))
        return self._snapshot_value(value, bounds, frame,
                                    elide_bound=expr.elide_bound,
                                    span=expr.span)

    def _snapshot_value(self, value: object, bounds,
                        frame: _Frame, elide_bound: bool = False,
                        span=None) -> object:
        """Snapshot an already-evaluated value against ``(lo, hi)`` bound
        atoms (shared with the VM and the JIT) through the kernel's
        :func:`~repro.core.checks.snapshot`, and store its tag."""
        if not isinstance(value, ObjectV):
            raise StuckError(f"cannot snapshot {value!r}")
        name = value.class_info.name
        owner = self.table.attributor(name)
        if owner is None:
            raise StuckError(f"class {name} has no attributor")
        # An unresolvable bound variable degrades to the loosest bound.
        lower = self._resolve_atom(bounds[0], frame)
        upper = self._resolve_atom(bounds[1], frame)
        opts = self.options
        # A bound the planner proved (docs/ANALYSIS.md) is counted as
        # elided, not checked.
        mode, copy = snapshot(
            self, value, value, name, _attribute, owner,
            lower if lower is not None else BOTTOM,
            upper if upper is not None else TOP, span, frame.current_mode,
            "interp", opts.silent, opts.baseline, opts.lazy_copy,
            self._transient, self.on_snapshot,
            elide_bound and self._elide_on)
        if mode is None:
            return value
        if copy is not None:
            value = value.shallow_copy(mode, self.table)
            value.provenance = copy
        elif (not opts.baseline
              or value.class_info.params[0].concrete is None):
            # The overhead baseline re-modes only dynamic classes.
            value.retag(mode, self.table)
        return value

    def _eval_mcase(self, expr: ast.MCaseExpr, frame: _Frame) -> object:
        branches: Dict[Mode, object] = {}
        default = NO_DEFAULT
        for branch in expr.branches:
            value = self._eval(branch.expr, frame)
            if branch.mode_name is None:
                default = value
            else:
                branches[Mode(branch.mode_name)] = value
        value = MCaseV(branches, default)
        if expr.implicit_elim:
            return eliminate(self, "interp", value, frame.current_mode)
        return value

    def _eval_mselect(self, expr: ast.MSelect, frame: _Frame) -> object:
        value = self._eval(expr.expr, frame)
        atom = getattr(expr, "resolved_mode", expr.mode_name)
        return self._mselect_value(value, atom, frame)

    def _mselect_value(self, value: object, atom,
                       frame: _Frame) -> object:
        """Explicit elimination of an already-evaluated mode case at a
        bound atom (shared with the VM and the JIT)."""
        if not isinstance(value, MCaseV):
            raise StuckError(f"mselect on non-mcase value {value!r}")
        return eliminate(self, "interp", value,
                         self._resolve_atom(atom, frame))

    def _eval_binary(self, expr: ast.Binary, frame: _Frame) -> object:
        op = expr.op
        # Arithmetic/comparison dominates, so probe the operator table
        # first; the numeric type checks exclude bool, and everything
        # else goes through the shared checked helper.
        func = _ARITH.get(op)
        if func is not None:
            node = expr.left
            left = (node.value if node.__class__ is ast.IntLit
                    else self._eval_leaf(node, frame))
            node = expr.right
            right = (node.value if node.__class__ is ast.IntLit
                     else self._eval_leaf(node, frame))
            t = type(left)
            if t is int or t is float:
                t = type(right)
                if t is int or t is float:
                    return func(left, right)
            return self._binary_op(op, left, right)
        if op == "&&":
            left = self._eval_leaf(expr.left, frame)
            if not self._truth(left):
                return False
            return self._truth(self._eval_leaf(expr.right, frame))
        if op == "||":
            left = self._eval_leaf(expr.left, frame)
            if self._truth(left):
                return True
            return self._truth(self._eval_leaf(expr.right, frame))
        left = self._eval_leaf(expr.left, frame)
        right = self._eval_leaf(expr.right, frame)
        return self._binary_op(op, left, right)

    def _binary_op(self, op: str, left: object, right: object) -> object:
        """Apply a non-short-circuit binary operator to evaluated
        operands (shared with the VM's and the JIT's slow paths)."""
        # Numbers first: the exact type checks exclude bool (a subclass
        # of int), and ``==``/``!=`` are absent from the table so they
        # fall through to values_equal below.
        t = type(left)
        if t is int or t is float:
            t = type(right)
            if t is int or t is float:
                func = _ARITH.get(op)
                if func is not None:
                    return func(left, right)
        if op == "==":
            return self.values_equal(left, right)
        if op == "!=":
            return not self.values_equal(left, right)
        if op == "+" and (isinstance(left, str) or isinstance(right, str)):
            return self.render(left) + self.render(right)
        if not self._is_number(left) or not self._is_number(right):
            raise StuckError(
                f"operator {op!r} on non-numeric operands "
                f"{left!r}, {right!r}")
        func = _ARITH.get(op)
        if func is None:  # pragma: no cover
            raise StuckError(f"unknown operator {op!r}")
        return func(left, right)

    @staticmethod
    def _is_number(value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool)

    def _eval_unary(self, expr: ast.Unary, frame: _Frame) -> object:
        value = self._eval(expr.expr, frame)
        if expr.op == "-":
            if self._is_number(value):
                return -value
            raise StuckError(f"cannot negate {value!r}")
        if expr.op == "!":
            return not self._truth(value)
        raise StuckError(f"unknown unary {expr.op!r}")  # pragma: no cover

    def _eval_listlit(self, expr: ast.ListLit, frame: _Frame) -> object:
        return [self._eval(e, frame) for e in expr.elements]

    def _eval_instanceof(self, expr: ast.InstanceOf,
                         frame: _Frame) -> bool:
        value = self._eval(expr.expr, frame)
        if value is None:
            return False
        if not isinstance(value, ObjectV):
            return False
        return self.table.is_subclass(value.class_info.name,
                                      expr.class_name)


#: Type-keyed dispatch: one dict probe per node instead of an
#: ``isinstance`` ladder.  Keyed by exact class (AST nodes are final).
_EVAL_DISPATCH = {
    ast.IntLit: Interpreter._eval_literal,
    ast.FloatLit: Interpreter._eval_literal,
    ast.StringLit: Interpreter._eval_literal,
    ast.BoolLit: Interpreter._eval_literal,
    ast.NullLit: Interpreter._eval_null,
    ast.This: Interpreter._eval_this,
    ast.Var: Interpreter._eval_var,
    ast.FieldAccess: Interpreter._eval_field_access,
    ast.MethodCall: Interpreter._eval_call,
    ast.New: Interpreter._eval_new,
    ast.Cast: Interpreter._eval_cast,
    ast.Snapshot: Interpreter._eval_snapshot,
    ast.MCaseExpr: Interpreter._eval_mcase,
    ast.MSelect: Interpreter._eval_mselect,
    ast.Binary: Interpreter._eval_binary,
    ast.Unary: Interpreter._eval_unary,
    ast.ListLit: Interpreter._eval_listlit,
    ast.InstanceOf: Interpreter._eval_instanceof,
}

_STMT_DISPATCH = {
    ast.Block: Interpreter._stmt_block,
    ast.LocalVarDecl: Interpreter._stmt_local,
    ast.Assign: Interpreter._exec_assign,
    ast.ExprStmt: Interpreter._stmt_expr,
    ast.If: Interpreter._stmt_if,
    ast.While: Interpreter._stmt_while,
    ast.Foreach: Interpreter._exec_foreach,
    ast.Return: Interpreter._stmt_return,
    ast.Break: Interpreter._stmt_break,
    ast.Continue: Interpreter._stmt_continue,
    ast.TryCatch: Interpreter._stmt_try,
    ast.Throw: Interpreter._stmt_throw,
}


def run_source(source: str, args: Optional[List[str]] = None,
               platform=None, options: Optional[InterpOptions] = None,
               seed: int = 0, tracer=None, elide: bool = False,
               profiler=None):
    """Parse, typecheck and run an ENT program; returns the interpreter
    (inspect ``.output``, ``.stats``, and the returned value).

    ``elide=True`` additionally runs the :mod:`repro.analysis` elision
    planner over the checked program, so proven-safe dynamic checks are
    skipped (subject to ``options.elide_checks``)."""
    from repro.lang.typechecker import check_program

    checked = check_program(source)
    if elide:
        from repro.analysis import plan_elisions
        plan_elisions(checked)
    interp = Interpreter(checked, platform=platform, options=options,
                         seed=seed, tracer=tracer, profiler=profiler)
    result = interp.run(args)
    interp.result = result
    return interp
