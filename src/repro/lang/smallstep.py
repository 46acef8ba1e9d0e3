"""Small-step reference semantics for the ENT kernel (paper Figure 5).

The paper defines ENT's operational semantics as a substitution-based
small-step relation ``e =m=> e'`` over Featherweight-Java-style pure
expressions, with three ENT-specific runtime forms:

* ``cl(m, e)`` — a closure: ``e`` reducing under mode ``m``;
* ``obj(α, c⟨µ, ι⟩, v̄)`` — an object value;
* ``check(e, m1, m2, o)`` — the pending snapshot bound check.

Implicit mode-case elimination is the typechecker's decision
(``implicit_elim``, T-ElimCase's implicit form).  Substitution makes
it explicit: an annotated field read eliminates on its owner's mode in
R-Field; any other annotated node becomes ``e ◃ •`` (:class:`Elim`),
eliminated at the mode it reduces under — for a call result, the
caller's.

This module implements that relation directly, as a *reference*
semantics for the kernel fragment (classes whose constructors only
assign their parameters to fields and whose methods and attributors are
single ``return e;`` bodies).  The production interpreter
(:mod:`repro.lang.interp`) is big-step and environment-based; property
tests reduce kernel programs under both and require identical outcomes,
giving executable evidence for the paper's Theorem 1 story on the exact
formal system.

Reduction rules implemented (selected forms from Figure 5):

* **R-Msg** — ``o.md(v̄) =m=> cl(µ, e{v̄/x̄}{o/this})`` if ``dfall(o, m)``
  (with method-level mode overrides standing in for µ when present);
* **R-Snapshot** — ``snapshot o [m1,m2] =m=> check(abody{o/this}, m1,
  m2, o)`` when ``omode(o) = ?``;
* **R-Check** — ``check(m', m1, m2, o) =m=> obj(α', c⟨m',ι⟩, v̄)`` if
  ``m1 <= m' <= m2`` (fresh shallow copy), else a *bad check*;
* **R-Cast**, **R-Field**, **R-MCase/R-Elim** (explicit, and the
  implicit ``v ◃ •`` at the current mode), **R-Cl** (``cl(m, v) =>
  v``), plus the usual congruence (evaluation-context) rules,
  left-to-right, innermost-first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import (BadCastError, EnergyException,
                               EntRuntimeError, FuelExhausted, StuckError)
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice
from repro.lang import ast_nodes as ast
from repro.lang import types as ty
from repro.lang.typechecker import CheckedProgram
from repro.lang.types import DYN, ClassInfo, MethodInfo, ObjectType

__all__ = ["SmallStepMachine", "SSObject", "Closure", "Check", "Elim",
           "KernelError", "run_kernel", "extract_kernel_body"]

_alpha = itertools.count(1)


class KernelError(EntRuntimeError):
    """The program is outside the kernel fragment."""


@dataclass
class SSObject:
    """``obj(α, c⟨µ, ι⟩, v̄)``: an object value."""

    alpha: int
    info: ClassInfo
    #: Mode arguments; the first is ``µ`` (None encodes ``?``).
    mode_args: Tuple[Optional[Mode], ...]
    fields: Dict[str, object]
    snapshotted: bool = False

    @property
    def omode(self) -> Optional[Mode]:
        return self.mode_args[0] if self.mode_args else None

    def __repr__(self) -> str:
        tag = self.omode.name if self.omode else "?"
        return f"obj({self.alpha}, {self.info.name}<{tag}>)"


@dataclass
class MCaseValue:
    branches: Dict[Mode, object]
    default: Optional[object] = None
    has_default: bool = False


#: A runtime value embedded back into expression position.
@dataclass
class ValueExpr(ast.Expr):
    value: object = None


@dataclass
class Closure(ast.Expr):
    """``cl(m, e)``."""

    mode: Mode = TOP
    body: ast.Expr = dc_field(default_factory=ast.NullLit)


@dataclass
class Check(ast.Expr):
    """``check(e, m1, m2, o)``."""

    body: ast.Expr = dc_field(default_factory=ast.NullLit)
    lower: Mode = BOTTOM
    upper: Mode = TOP
    target: Optional[SSObject] = None


@dataclass
class Elim(ast.Expr):
    """``e ◃ •``: an implicit elimination at the mode ``e`` reduces
    under."""

    body: ast.Expr = dc_field(default_factory=ast.NullLit)


def _is_value(expr: ast.Expr) -> bool:
    return isinstance(expr, ValueExpr)


def extract_kernel_body(decl) -> ast.Expr:
    """The single ``return e;`` body of a kernel method/attributor."""
    stmts = decl.body.stmts if isinstance(decl, ast.MethodDecl) else \
        decl.body.stmts
    if len(stmts) != 1 or not isinstance(stmts[0], ast.Return) or \
            stmts[0].expr is None:
        raise KernelError(
            "kernel methods must consist of a single 'return e;'")
    return stmts[0].expr


def _substitute(expr: ast.Expr, env: Dict[str, object],
                this_value: Optional[SSObject]) -> ast.Expr:
    """Capture-free substitution ``e{v̄/x̄}{o/this}``.

    Variables not in the map are left untouched (they may be mode
    literals, resolved at reduction time).  An ``implicit_elim`` node
    comes back as ``e ◃ •``, except a field read, which keeps the
    annotation for R-Field.
    """
    clone = _substitute_node(expr, env, this_value)
    if expr.implicit_elim and clone.__class__ is not ast.FieldAccess:
        return Elim(body=clone, span=expr.span)
    return clone


def _substitute_node(expr: ast.Expr, env: Dict[str, object],
                     this_value: Optional[SSObject]) -> ast.Expr:
    if isinstance(expr, (ValueExpr, Closure, Check)):
        return expr
    if isinstance(expr, ast.Var):
        if expr.name in env:
            return ValueExpr(value=env[expr.name], span=expr.span)
        # Implicit this-field read (the concrete syntax allows `n` for
        # `this.n`; the formal system writes the latter).
        if this_value is not None and expr.name in this_value.fields:
            access = ast.FieldAccess(obj=ValueExpr(value=this_value),
                                     name=expr.name, span=expr.span)
            access.implicit_elim = expr.implicit_elim
            return access
        return expr
    if isinstance(expr, ast.This):
        if this_value is None:
            raise KernelError("free 'this' outside an object")
        return ValueExpr(value=this_value, span=expr.span)
    if isinstance(expr, ast.FieldAccess):
        clone = ast.FieldAccess(
            obj=_substitute(expr.obj, env, this_value), name=expr.name,
            span=expr.span)
        clone.implicit_elim = expr.implicit_elim
        return clone
    if isinstance(expr, ast.MethodCall):
        receiver = (None if expr.receiver is None
                    else _substitute(expr.receiver, env, this_value))
        if receiver is None:
            if this_value is None:
                raise KernelError("implicit this-call outside an object")
            receiver = ValueExpr(value=this_value)
        return ast.MethodCall(
            receiver=receiver, name=expr.name,
            args=[_substitute(a, env, this_value) for a in expr.args],
            span=expr.span)
    if isinstance(expr, ast.New):
        clone = ast.New(class_name=expr.class_name,
                        mode_args=expr.mode_args,
                        args=[_substitute(a, env, this_value)
                              for a in expr.args],
                        span=expr.span)
        clone.resolved_type = getattr(expr, "resolved_type", None)
        return clone
    if isinstance(expr, ast.Cast):
        clone = ast.Cast(target=expr.target,
                         expr=_substitute(expr.expr, env, this_value),
                         span=expr.span)
        clone.resolved_target = getattr(expr, "resolved_target", None)
        return clone
    if isinstance(expr, ast.Snapshot):
        clone = ast.Snapshot(
            expr=_substitute(expr.expr, env, this_value),
            lower=expr.lower, upper=expr.upper, span=expr.span)
        clone.resolved_bounds = getattr(expr, "resolved_bounds",
                                        (BOTTOM, TOP))
        return clone
    if isinstance(expr, ast.MCaseExpr):
        return ast.MCaseExpr(
            element=expr.element,
            branches=[ast.MCaseBranch(
                mode_name=b.mode_name,
                expr=_substitute(b.expr, env, this_value), span=b.span)
                for b in expr.branches],
            span=expr.span)
    if isinstance(expr, ast.MSelect):
        clone = ast.MSelect(
            expr=_substitute(expr.expr, env, this_value),
            mode_name=expr.mode_name, span=expr.span)
        clone.resolved_mode = getattr(expr, "resolved_mode",
                                      expr.mode_name)
        return clone
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StringLit,
                         ast.BoolLit, ast.NullLit)):
        return expr
    if isinstance(expr, ast.Binary):
        return ast.Binary(op=expr.op,
                          left=_substitute(expr.left, env, this_value),
                          right=_substitute(expr.right, env, this_value),
                          span=expr.span)
    if isinstance(expr, ast.Unary):
        return ast.Unary(op=expr.op,
                         expr=_substitute(expr.expr, env, this_value),
                         span=expr.span)
    raise KernelError(
        f"expression form {type(expr).__name__} is outside the kernel")


class SmallStepMachine:
    """Reduces kernel expressions under the Figure 5 relation."""

    def __init__(self, checked: CheckedProgram,
                 fuel: int = 100_000) -> None:
        self.checked = checked
        self.table = checked.table
        self.lattice: ModeLattice = checked.lattice
        self.fuel = fuel
        self.steps_taken = 0
        #: Reduction trace of rule names (for tests/diagnostics).
        self.trace: List[str] = []

    # ------------------------------------------------------------------

    def boot(self) -> ast.Expr:
        """``boot(P) = cl(⊤, mbody(main, Main⟨⊤⟩))``."""
        info = self.table.get("Main")
        minfo = info.methods.get("main")
        if minfo is None:
            raise KernelError("no Main.main")
        body = extract_kernel_body(minfo.decl)
        main_obj = SSObject(next(_alpha), info, (TOP,), {})
        return Closure(mode=TOP,
                       body=_substitute(body, {}, main_obj))

    def run(self) -> object:
        """Reduce the boot configuration to a value."""
        expr = self.boot()
        while not _is_value(expr):
            expr = self.step(expr, TOP)
        return expr.value

    # ------------------------------------------------------------------

    def _record(self, rule: str) -> None:
        self.trace.append(rule)
        self.steps_taken += 1
        if self.steps_taken > self.fuel:
            raise FuelExhausted(f"exceeded {self.fuel} reduction steps")

    def step(self, expr: ast.Expr, mode: Mode) -> ast.Expr:
        """One reduction step of ``expr`` under the current mode."""
        if _is_value(expr):
            raise StuckError("cannot step a value")

        # --- closures -------------------------------------------------
        if isinstance(expr, Closure):
            if _is_value(expr.body):
                self._record("R-Cl")
                return expr.body
            return Closure(mode=expr.mode,
                           body=self.step(expr.body, expr.mode),
                           span=expr.span)

        # --- implicit eliminations -----------------------------------
        if isinstance(expr, Elim):
            if _is_value(expr.body):
                return self._reduce_elim(expr, mode)
            return Elim(body=self.step(expr.body, mode), span=expr.span)

        # --- pending snapshot checks ----------------------------------
        if isinstance(expr, Check):
            if _is_value(expr.body):
                return self._reduce_check(expr)
            # Attributors are invoked externally: reduce under BOTTOM.
            return Check(body=self.step(expr.body, BOTTOM),
                         lower=expr.lower, upper=expr.upper,
                         target=expr.target, span=expr.span)

        # --- literals -------------------------------------------------
        if isinstance(expr, ast.IntLit):
            self._record("R-Lit")
            return ValueExpr(value=expr.value)
        if isinstance(expr, ast.FloatLit):
            self._record("R-Lit")
            return ValueExpr(value=expr.value)
        if isinstance(expr, ast.StringLit):
            self._record("R-Lit")
            return ValueExpr(value=expr.value)
        if isinstance(expr, ast.BoolLit):
            self._record("R-Lit")
            return ValueExpr(value=expr.value)
        if isinstance(expr, ast.NullLit):
            self._record("R-Lit")
            return ValueExpr(value=None)
        if isinstance(expr, ast.Var):
            mode_value = Mode(expr.name)
            if mode_value in self.lattice:
                self._record("R-ModeLit")
                return ValueExpr(value=mode_value)
            raise StuckError(f"free variable {expr.name!r}")

        # --- congruence + redexes --------------------------------------
        if isinstance(expr, ast.FieldAccess):
            if not _is_value(expr.obj):
                clone = ast.FieldAccess(obj=self.step(expr.obj, mode),
                                        name=expr.name, span=expr.span)
                clone.implicit_elim = expr.implicit_elim
                return clone
            return self._reduce_field(expr)
        if isinstance(expr, ast.MethodCall):
            return self._step_call(expr, mode)
        if isinstance(expr, ast.New):
            return self._step_new(expr, mode)
        if isinstance(expr, ast.Cast):
            if not _is_value(expr.expr):
                clone = ast.Cast(target=expr.target,
                                 expr=self.step(expr.expr, mode),
                                 span=expr.span)
                clone.resolved_target = getattr(expr, "resolved_target",
                                                None)
                return clone
            return self._reduce_cast(expr)
        if isinstance(expr, ast.Snapshot):
            if not _is_value(expr.expr):
                clone = ast.Snapshot(expr=self.step(expr.expr, mode),
                                     lower=expr.lower, upper=expr.upper,
                                     span=expr.span)
                clone.resolved_bounds = getattr(expr, "resolved_bounds",
                                                (BOTTOM, TOP))
                return clone
            return self._reduce_snapshot(expr)
        if isinstance(expr, ast.MCaseExpr):
            return self._step_mcase(expr, mode)
        if isinstance(expr, ast.MSelect):
            if not _is_value(expr.expr):
                clone = ast.MSelect(expr=self.step(expr.expr, mode),
                                    mode_name=expr.mode_name,
                                    span=expr.span)
                clone.resolved_mode = getattr(expr, "resolved_mode",
                                              expr.mode_name)
                return clone
            return self._reduce_mselect(expr)
        if isinstance(expr, ast.Binary):
            return self._step_binary(expr, mode)
        if isinstance(expr, ast.Unary):
            if not _is_value(expr.expr):
                return ast.Unary(op=expr.op,
                                 expr=self.step(expr.expr, mode),
                                 span=expr.span)
            return self._reduce_unary(expr)
        raise KernelError(
            f"expression form {type(expr).__name__} is outside the "
            f"kernel")

    # ------------------------------------------------------------------
    # Redexes

    def _reduce_field(self, expr: ast.FieldAccess) -> ast.Expr:
        obj = expr.obj.value
        if not isinstance(obj, SSObject):
            raise StuckError(f"field access on non-object {obj!r}")
        if expr.name not in obj.fields:
            raise StuckError(
                f"object of {obj.info.name} has no field {expr.name!r}")
        self._record("R-Field")
        value = obj.fields[expr.name]
        # Implicit mode-case elimination on the enclosing object's mode.
        if isinstance(value, MCaseValue) and expr.implicit_elim:
            return ValueExpr(value=self._eliminate(value, obj.omode))
        return ValueExpr(value=value)

    def _method_lookup(self, info: ClassInfo,
                       name: str) -> Optional[MethodInfo]:
        current: Optional[ClassInfo] = info
        while current is not None:
            if name in current.methods:
                return current.methods[name]
            current = (self.table.get(current.superclass)
                       if current.superclass else None)
        return None

    def _step_call(self, expr: ast.MethodCall, mode: Mode) -> ast.Expr:
        assert expr.receiver is not None, "kernel calls are explicit"
        if not _is_value(expr.receiver):
            return ast.MethodCall(receiver=self.step(expr.receiver, mode),
                                  name=expr.name, args=expr.args,
                                  span=expr.span)
        for index, arg in enumerate(expr.args):
            if not _is_value(arg):
                args = list(expr.args)
                args[index] = self.step(arg, mode)
                return ast.MethodCall(receiver=expr.receiver,
                                      name=expr.name, args=args,
                                      span=expr.span)
        # R-Msg.
        obj = expr.receiver.value
        if not isinstance(obj, SSObject):
            raise StuckError(f"message to non-object {obj!r}")
        minfo = self._method_lookup(obj.info, expr.name)
        if minfo is None or minfo.decl is None:
            raise StuckError(
                f"no method {expr.name!r} on {obj.info.name}")
        # dfall(o, m): the guard is the method override when present.
        guard: Optional[Mode]
        closure_mode: Mode
        if minfo.mode_param is not None and \
                minfo.mode_param.concrete is not None:
            guard = closure_mode = minfo.mode_param.concrete
        else:
            guard = obj.omode
            closure_mode = guard if guard is not None else mode
        if guard is None:
            raise StuckError(
                f"dfall violated: messaging dynamic object "
                f"{obj!r} ({expr.name})")
        if not self.lattice.leq(guard, mode):
            raise EnergyException(
                f"dfall violated: {guard.name} > {mode.name} "
                f"({obj.info.name}.{expr.name})", mode=guard, upper=mode)
        body = extract_kernel_body(minfo.decl)
        env = dict(zip(minfo.param_names,
                       [a.value for a in expr.args]))
        self._record("R-Msg")
        return Closure(mode=closure_mode,
                       body=_substitute(body, env, obj))

    def _step_new(self, expr: ast.New, mode: Mode) -> ast.Expr:
        for index, arg in enumerate(expr.args):
            if not _is_value(arg):
                args = list(expr.args)
                args[index] = self.step(arg, mode)
                clone = ast.New(class_name=expr.class_name,
                                mode_args=expr.mode_args, args=args,
                                span=expr.span)
                clone.resolved_type = getattr(expr, "resolved_type", None)
                return clone
        resolved = getattr(expr, "resolved_type", None)
        if not isinstance(resolved, ObjectType):
            raise KernelError("new-expression was not typechecked")
        info = self.table.get(resolved.class_name)
        mode_args = tuple(
            atom if isinstance(atom, Mode)
            else None for atom in resolved.mode_args)
        fields = self._kernel_fields(info, [a.value for a in expr.args])
        self._record("R-New")
        return ValueExpr(value=SSObject(next(_alpha), info, mode_args,
                                        fields))

    def _kernel_fields(self, info: ClassInfo,
                       args: List[object]) -> Dict[str, object]:
        """FJ-style construction: the constructor assigns its parameters
        to fields (validated), or there is no constructor."""
        field_names = [f.name for f in self.table.all_fields(info.name)]
        fields: Dict[str, object] = {name: None for name in field_names}
        # Mode-case field initializers are part of the kernel.
        for finfo in self.table.all_fields(info.name):
            decl = finfo.decl
            if decl is not None and decl.init is not None:
                if not isinstance(decl.init, ast.MCaseExpr):
                    raise KernelError(
                        "kernel field initializers must be mcase "
                        "literals")
                fields[finfo.name] = self._mcase_literal(decl.init)
        ctor = info.decl.constructor if info.decl is not None else None
        if ctor is None:
            if args:
                raise StuckError(f"{info.name} takes no arguments")
            return fields
        if len(args) != len(ctor.params):
            raise StuckError(f"constructor arity mismatch on "
                             f"{info.name}")
        params = {p.name: v for p, v in zip(ctor.params, args)}
        for stmt in ctor.body.stmts:
            ok = (isinstance(stmt, ast.Assign)
                  and isinstance(stmt.value, ast.Var)
                  and stmt.value.name in params)
            if ok and isinstance(stmt.target, ast.Var):
                fields[stmt.target.name] = params[stmt.value.name]
            elif ok and isinstance(stmt.target, ast.FieldAccess) and \
                    isinstance(stmt.target.obj, ast.This):
                fields[stmt.target.name] = params[stmt.value.name]
            else:
                raise KernelError(
                    "kernel constructors may only assign parameters "
                    "to fields")
        return fields

    def _mcase_literal(self, expr: ast.MCaseExpr) -> MCaseValue:
        branches: Dict[Mode, object] = {}
        default = None
        has_default = False
        for branch in expr.branches:
            value = self._literal_value(branch.expr)
            if branch.mode_name is None:
                default, has_default = value, True
            else:
                branches[Mode(branch.mode_name)] = value
        return MCaseValue(branches, default, has_default)

    @staticmethod
    def _literal_value(expr: ast.Expr) -> object:
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StringLit,
                             ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.NullLit):
            return None
        raise KernelError("kernel mcase branches must be literals")

    def _reduce_cast(self, expr: ast.Cast) -> ast.Expr:
        value = expr.expr.value
        target = getattr(expr, "resolved_target", None)
        self._record("R-Cast")
        if isinstance(target, ObjectType):
            if value is None:
                return ValueExpr(value=None)
            if not isinstance(value, SSObject) or not \
                    self.table.is_subclass(value.info.name,
                                           target.class_name):
                raise BadCastError(f"bad cast to {target}")
            target_mode = (target.omode if isinstance(target.omode, Mode)
                           else None)
            if target.omode is not DYN and target_mode is not None and \
                    value.omode != target_mode:
                raise BadCastError(
                    f"bad cast: mode {value.omode} vs {target_mode}")
            return ValueExpr(value=value)
        if target == ty.INT and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return ValueExpr(value=int(value))
        if target == ty.DOUBLE and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return ValueExpr(value=float(value))
        raise BadCastError(f"bad cast of {value!r}")

    def _reduce_snapshot(self, expr: ast.Snapshot) -> ast.Expr:
        obj = expr.expr.value
        if not isinstance(obj, SSObject):
            raise StuckError(f"snapshot of non-object {obj!r}")
        if obj.omode is not None:
            raise StuckError("snapshot of a non-dynamic object")
        attributor = None
        current: Optional[ClassInfo] = obj.info
        while current is not None and attributor is None:
            if current.decl is not None and current.decl.attributor:
                attributor = current.decl.attributor
            current = (self.table.get(current.superclass)
                       if current.superclass else None)
        if attributor is None:
            raise StuckError(f"{obj.info.name} has no attributor")
        body = extract_kernel_body(attributor)
        bounds = getattr(expr, "resolved_bounds", (BOTTOM, TOP))
        lower = bounds[0] if isinstance(bounds[0], Mode) else BOTTOM
        upper = bounds[1] if isinstance(bounds[1], Mode) else TOP
        self._record("R-Snapshot")
        return Check(body=_substitute(body, {}, obj), lower=lower,
                     upper=upper, target=obj)

    def _reduce_check(self, expr: Check) -> ast.Expr:
        mode = expr.body.value
        if not isinstance(mode, Mode):
            raise StuckError(f"attributor produced non-mode {mode!r}")
        if not (self.lattice.leq(expr.lower, mode)
                and self.lattice.leq(mode, expr.upper)):
            raise EnergyException(
                f"bad check: {mode.name} outside "
                f"[{expr.lower.name}, {expr.upper.name}]",
                mode=mode, lower=expr.lower, upper=expr.upper)
        source = expr.target
        assert source is not None
        self._record("R-Check")
        copy = SSObject(next(_alpha), source.info,
                        (mode,) + source.mode_args[1:],
                        dict(source.fields), snapshotted=True)
        return ValueExpr(value=copy)

    def _step_mcase(self, expr: ast.MCaseExpr, mode: Mode) -> ast.Expr:
        for index, branch in enumerate(expr.branches):
            if not _is_value(branch.expr):
                branches = list(expr.branches)
                branches[index] = ast.MCaseBranch(
                    mode_name=branch.mode_name,
                    expr=self.step(branch.expr, mode), span=branch.span)
                return ast.MCaseExpr(element=expr.element,
                                     branches=branches, span=expr.span)
        branches: Dict[Mode, object] = {}
        default = None
        has_default = False
        for branch in expr.branches:
            if branch.mode_name is None:
                default, has_default = branch.expr.value, True
            else:
                branches[Mode(branch.mode_name)] = branch.expr.value
        self._record("R-MCase")
        return ValueExpr(value=MCaseValue(branches, default, has_default))

    def _eliminate(self, value: MCaseValue,
                   mode: Optional[Mode]) -> object:
        if mode is None:
            raise EnergyException(
                "cannot eliminate a mode case against ?")
        if mode in value.branches:
            return value.branches[mode]
        if value.has_default:
            return value.default
        raise EntRuntimeError(f"no branch for {mode.name}")

    def _reduce_elim(self, expr: Elim, mode: Mode) -> ast.Expr:
        """``v ◃ •`` under ``mode``: a mode case projects on ``mode``;
        anything else (a mode-case-typed ``null``) passes."""
        value = expr.body.value
        self._record("R-Elim")
        if isinstance(value, MCaseValue):
            value = self._eliminate(value, mode)
        return ValueExpr(value=value)

    def _reduce_mselect(self, expr: ast.MSelect) -> ast.Expr:
        value = expr.expr.value
        if not isinstance(value, MCaseValue):
            raise StuckError(f"mselect of non-mcase {value!r}")
        atom = getattr(expr, "resolved_mode", expr.mode_name)
        mode = atom if isinstance(atom, Mode) else Mode(str(atom))
        self._record("R-Elim")
        return ValueExpr(value=self._eliminate(value, mode))

    def _step_binary(self, expr: ast.Binary, mode: Mode) -> ast.Expr:
        if not _is_value(expr.left):
            return ast.Binary(op=expr.op,
                              left=self.step(expr.left, mode),
                              right=expr.right, span=expr.span)
        if not _is_value(expr.right):
            return ast.Binary(op=expr.op, left=expr.left,
                              right=self.step(expr.right, mode),
                              span=expr.span)
        left, right = expr.left.value, expr.right.value
        self._record("R-Op")
        ops = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: int(left / right)
            if isinstance(left, int) and isinstance(right, int)
            else left / right,
            "%": lambda: left - int(left / right) * right
            if isinstance(left, int) and isinstance(right, int)
            else left % right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
            ">": lambda: left > right,
            ">=": lambda: left >= right,
            "==": lambda: (left is right
                           if isinstance(left, SSObject)
                           or isinstance(right, SSObject)
                           else left == right),
            "!=": lambda: not (left is right
                               if isinstance(left, SSObject)
                               or isinstance(right, SSObject)
                               else left == right),
            "&&": lambda: left and right,
            "||": lambda: left or right,
        }
        if expr.op not in ops:
            raise KernelError(f"operator {expr.op!r} outside the kernel")
        if expr.op in ("/", "%") and right == 0:
            raise EntRuntimeError("division by zero")
        try:
            return ValueExpr(value=ops[expr.op]())
        except TypeError as exc:
            raise StuckError(f"ill-typed operands: {exc}") from None

    def _reduce_unary(self, expr: ast.Unary) -> ast.Expr:
        value = expr.expr.value
        self._record("R-Op")
        if expr.op == "-" and isinstance(value, (int, float)) and \
                not isinstance(value, bool):
            return ValueExpr(value=-value)
        if expr.op == "!" and isinstance(value, bool):
            return ValueExpr(value=not value)
        raise StuckError(f"ill-typed unary {expr.op!r} on {value!r}")


def run_kernel(checked_or_source: Union[CheckedProgram, str],
               fuel: int = 100_000) -> Tuple[object, SmallStepMachine]:
    """Reduce a kernel program to a value under the small-step relation."""
    if isinstance(checked_or_source, str):
        from repro.lang.typechecker import check_program
        checked = check_program(checked_or_source)
    else:
        checked = checked_or_source
    machine = SmallStepMachine(checked, fuel=fuel)
    return machine.run(), machine
