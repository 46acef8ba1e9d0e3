"""The mixed static/dynamic typechecker for ENT (paper section 4.1).

Implements the paper's expression typing rules over the extended surface
language:

* **T-New** — dynamic classes must be instantiated at ``?``; instantiated
  mode-parameter bounds must be entailed by the current constraint set.
* **T-Msg** — the *static waterfall invariant* ``sfall``: the receiver's
  mode (or the method's overriding mode) must be ≤ the sender's mode.
  Messaging an object of dynamic mode is a compile-time error ("snapshot
  first"), except through mode-overridden methods and self-messaging
  (the internal view of an object may always message itself).
* **T-Snapshot** — ``snapshot e [lo, hi]`` types at a bounded existential;
  we open it immediately with a fresh mode variable constrained to
  ``[lo, hi]``, which subsequent code can use (the paper's
  ``∃ω.c⟨mt, ι⟩``).
* **T-MCase / T-ElimCase** — mode-case introduction and elimination;
  elimination is implicit at uses whose expected type is not an mcase,
  projecting on the enclosing object's mode.  The node is marked
  ``implicit_elim``, and every engine eliminates exactly there.

Internal/external mode distinction: inside a class ``c ∆`` the receiver
``this`` is typed ``c⟨mt, ι⟩`` where ``mt = param(∆)[0]``; inside the
class's *attributor* it is typed ``c⟨?, ι⟩`` (attributors are invoked
externally, before a mode exists).

The checker decorates AST nodes in place with ``resolved_*`` attributes
consumed by the interpreter and by tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from repro.core.constraints import ConstraintSet
from repro.core.errors import (EntTypeError, ModeLatticeError, SourceSpan,
                               WaterfallError)
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice
from repro.lang import ast_nodes as ast
from repro.lang import types as ty
from repro.lang.natives import (NATIVE_STATIC_CLASSES, native_static_return,
                                native_value_method_return)
from repro.lang.types import (DYN, ClassInfo, ClassTable, FieldInfo,
                              MethodInfo, ModeAtom, ModeParam, ObjectType,
                              Type)

__all__ = ["CheckedProgram", "TypeChecker", "check_program"]


@dataclass
class CheckedProgram:
    """A typechecked program, ready for interpretation."""

    program: ast.Program
    lattice: ModeLattice
    table: ClassTable


@dataclass
class _Scope:
    """Lexical checking context for one body (method/constructor/etc.)."""

    class_info: ClassInfo
    this_type: ObjectType
    #: The sender mode used by sfall (the paper's ``omode(Γ(this))``, or
    #: the method's overriding mode inside mode-overridden methods).
    sender_atom: ModeAtom
    #: Mode variables in scope: class params plus any method-level var.
    mode_vars: Dict[str, ModeParam]
    constraints: ConstraintSet
    locals: List[Dict[str, Type]] = dc_field(default_factory=list)
    return_type: Type = ty.VOID
    in_attributor: bool = False
    #: Loops enclosing the statement being checked, in this body only:
    #: a loop in a calling method does not make ``break`` legal.
    loop_depth: int = 0
    _fresh_counter: int = 0

    def push(self) -> None:
        self.locals.append({})

    def pop(self) -> None:
        self.locals.pop()

    def declare(self, name: str, typ: Type, span=None) -> None:
        for frame in self.locals:
            if name in frame:
                raise EntTypeError(f"duplicate local {name!r}", span)
        self.locals[-1][name] = typ

    def lookup_local(self, name: str) -> Optional[Type]:
        for frame in reversed(self.locals):
            if name in frame:
                return frame[name]
        return None

    def fresh_var(self, hint: str = "S") -> str:
        self._fresh_counter += 1
        return f"${hint}{self._fresh_counter}"

    @property
    def context_atom(self) -> ModeAtom:
        """Default mode for elided instantiations of generic classes."""
        return BOTTOM if self.in_attributor else self.sender_atom


class TypeChecker:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.lattice = self._build_lattice()
        self.table = ClassTable()
        # (class name, extra param) -> base constraint set; ClassInfo
        # params are immutable once resolved, so entries never go stale.
        self._base_constraints_cache: Dict[
            Tuple[str, Optional[ModeParam]], ConstraintSet] = {}

    # ==================================================================
    # Phase 1: mode lattice

    def _build_lattice(self) -> ModeLattice:
        pairs: List[Tuple[str, str]] = []
        singles: List[str] = []
        for decl in self.program.modes:
            pairs.extend(decl.pairs)
            singles.extend(decl.singletons)
        try:
            return ModeLattice.from_names(pairs, extra_modes=singles)
        except ModeLatticeError:
            raise

    def _mode_const(self, name: str) -> Optional[Mode]:
        mode = Mode(name)
        return mode if mode in self.lattice else None

    # ==================================================================
    # Phase 2/3: class table construction

    def check(self) -> CheckedProgram:
        for cls in self.program.classes:
            self.table.add(self._build_class_skeleton(cls))
        self.table.check_acyclic()
        for cls in self.program.classes:
            info = self.table.get(cls.name)
            if info.is_dynamic and self.table.attributor(cls.name) is None:
                raise EntTypeError(
                    f"dynamic class {cls.name} must declare (or "
                    f"inherit) an attributor", cls.span)
        for cls in self.program.classes:
            self._resolve_signatures(cls)
        for cls in self.program.classes:
            self._check_class(cls)
        return CheckedProgram(self.program, self.lattice, self.table)

    def _build_class_skeleton(self, cls: ast.ClassDecl) -> ClassInfo:
        params = self._resolve_mode_params(cls)
        transparent = cls.mode_param is None and cls.name != "Main"
        info = ClassInfo(name=cls.name, superclass=cls.superclass,
                         params=params, decl=cls, transparent=transparent)
        if cls.name == "Object":
            raise EntTypeError("cannot redeclare class Object", cls.span)
        if not info.is_dynamic and cls.attributor is not None:
            raise EntTypeError(
                f"class {cls.name} has an attributor but is not dynamic "
                f"(declare it @mode<?> or @mode<?X>)", cls.span)
        return info

    def _resolve_mode_params(self, cls: ast.ClassDecl) -> List[ModeParam]:
        if cls.mode_param is None:
            if cls.name == "Main":
                # Main is typed at ⊤: boot(P) = cl(⊤, main body).
                return [ModeParam(concrete=TOP)]
            # Unannotated classes are implicitly mode-generic: plain Java
            # code stays typeable, with objects adopting their creator's
            # mode by default.
            return [ModeParam(var=f"$X_{cls.name}")]
        if cls.name == "Main" and cls.extra_params:
            # boot(P) binds one mode, ⊤; another parameter would stay
            # unbound and get stuck at its first elimination.
            raise EntTypeError(
                "class Main takes at most one mode parameter (the boot "
                "mode ⊤)", cls.span)
        params = [self._resolve_mode_param(cls, cls.mode_param, first=True)]
        for node in cls.extra_params:
            params.append(self._resolve_mode_param(cls, node, first=False))
        names = [p.var for p in params if p.var is not None]
        if len(names) != len(set(names)):
            raise EntTypeError(
                f"duplicate mode parameter in class {cls.name}", cls.span)
        return params

    def _resolve_mode_param(self, cls: ast.ClassDecl,
                            node: ast.ModeParamNode,
                            first: bool) -> ModeParam:
        if node.dynamic and not first:
            raise EntTypeError(
                "only the first mode parameter may be dynamic", node.span)
        lower = self._resolve_bound(node.lower, BOTTOM, node.span)
        upper = self._resolve_bound(node.upper, TOP, node.span)
        if not self.lattice.leq(lower, upper):
            raise EntTypeError(
                f"mode parameter bounds are inverted: {lower} </= {upper}",
                node.span)
        if node.var is None:
            if not node.dynamic:
                raise EntTypeError("missing mode parameter name", node.span)
            return ModeParam(dynamic=True, var=f"$X_{cls.name}",
                             lower=lower, upper=upper)
        const = self._mode_const(node.var)
        if const is not None:
            if node.dynamic:
                raise EntTypeError(
                    f"dynamic mode parameter cannot be the concrete mode "
                    f"{const}", node.span)
            if not first:
                raise EntTypeError(
                    "extra mode parameters must be variables", node.span)
            return ModeParam(concrete=const)
        return ModeParam(dynamic=node.dynamic, var=node.var,
                         lower=lower, upper=upper)

    def _resolve_bound(self, name: Optional[str], default: Mode,
                       span) -> Mode:
        if name is None:
            return default
        const = self._mode_const(name)
        if const is None:
            raise EntTypeError(
                f"mode parameter bound {name!r} is not a declared mode",
                span)
        return const

    # ------------------------------------------------------------------
    # Signature resolution

    def _class_mode_vars(self, info: ClassInfo) -> Dict[str, ModeParam]:
        return {p.var: p for p in info.params if p.var is not None}

    def _resolve_signatures(self, cls: ast.ClassDecl) -> None:
        info = self.table.get(cls.name)
        mode_vars = self._class_mode_vars(info)
        context = info.internal_atom
        # Superclass mode arguments.
        if cls.super_mode_args is not None:
            super_info = self.table.get(cls.superclass)
            info.super_args = self._resolve_mode_args(
                cls.super_mode_args, super_info, mode_vars, context,
                cls.span, allow_dynamic=False)
        for fdecl in cls.fields:
            if fdecl.name in info.fields:
                raise EntTypeError(
                    f"duplicate field {fdecl.name!r} in {cls.name}",
                    fdecl.span)
            declared = self._resolve_type(fdecl.declared, mode_vars, context)
            if declared == ty.VOID:
                raise EntTypeError("field cannot have type void", fdecl.span)
            info.fields[fdecl.name] = FieldInfo(
                name=fdecl.name, owner=cls.name, declared=declared,
                decl=fdecl)
        for mdecl in cls.methods:
            if mdecl.name in info.methods:
                raise EntTypeError(
                    f"duplicate method {mdecl.name!r} in {cls.name}",
                    mdecl.span)
            info.methods[mdecl.name] = self._resolve_method_signature(
                cls, info, mdecl, mode_vars)

    def _resolve_method_signature(self, cls: ast.ClassDecl, info: ClassInfo,
                                  mdecl: ast.MethodDecl,
                                  class_vars: Dict[str, ModeParam]
                                  ) -> MethodInfo:
        mode_param: Optional[ModeParam] = None
        scope_vars = dict(class_vars)
        if mdecl.mode_param is not None:
            node = mdecl.mode_param
            lower = self._resolve_bound(node.lower, BOTTOM, node.span)
            upper = self._resolve_bound(node.upper, TOP, node.span)
            if node.var is None:
                if not node.dynamic:
                    raise EntTypeError("empty method mode annotation",
                                       node.span)
                mode_param = ModeParam(dynamic=True,
                                       var=f"$M_{cls.name}_{mdecl.name}",
                                       lower=lower, upper=upper)
            else:
                const = self._mode_const(node.var)
                if const is not None:
                    mode_param = ModeParam(dynamic=node.dynamic,
                                           concrete=const)
                else:
                    if node.var in scope_vars:
                        raise EntTypeError(
                            f"method mode variable {node.var!r} shadows a "
                            f"class mode parameter", node.span)
                    mode_param = ModeParam(dynamic=node.dynamic,
                                           var=node.var,
                                           lower=lower, upper=upper)
            if mode_param.var is not None:
                scope_vars[mode_param.var] = mode_param
        if mdecl.attributor is not None:
            if mode_param is None or not mode_param.dynamic:
                raise EntTypeError(
                    f"method {mdecl.name!r} has an attributor but no "
                    f"dynamic mode annotation (@mode<?X>)", mdecl.span)
        elif mode_param is not None and mode_param.dynamic:
            raise EntTypeError(
                f"method {mdecl.name!r} is declared @mode<?...> but has "
                f"no attributor", mdecl.span)
        context = info.internal_atom
        param_types = [self._resolve_type(p.declared, scope_vars, context)
                       for p in mdecl.params]
        param_names = [p.name for p in mdecl.params]
        if len(param_names) != len(set(param_names)):
            raise EntTypeError(
                f"duplicate parameter name in {cls.name}.{mdecl.name}",
                mdecl.span)
        return_type = self._resolve_type(mdecl.return_type, scope_vars,
                                         context)
        return MethodInfo(name=mdecl.name, owner=cls.name,
                          param_types=param_types, param_names=param_names,
                          return_type=return_type, mode_param=mode_param,
                          has_attributor=mdecl.attributor is not None,
                          decl=mdecl)

    # ------------------------------------------------------------------
    # Type resolution

    def _resolve_type(self, node: ast.TypeNode,
                      mode_vars: Dict[str, ModeParam],
                      context: ModeAtom) -> Type:
        if isinstance(node, ast.PrimTypeNode):
            return ty.prim_type(node.name)
        if isinstance(node, ast.MCaseTypeNode):
            element = self._resolve_type(node.element, mode_vars, context)
            if isinstance(element, ty.MCaseType):
                raise EntTypeError("nested mcase types are not supported",
                                   node.span)
            return ty.MCaseType(element)
        assert isinstance(node, ast.ClassTypeNode)
        if node.name == "List":
            if node.mode_args is not None:
                raise EntTypeError("the native List takes no mode arguments",
                                   node.span)
            return ty.LIST
        if node.name not in self.table:
            raise EntTypeError(f"unknown class {node.name!r}", node.span)
        info = self.table.get(node.name)
        if node.mode_args is None:
            args = self._default_mode_args(info, context)
        else:
            args = self._resolve_mode_args(node.mode_args, info, mode_vars,
                                           context, node.span,
                                           allow_dynamic=True)
        resolved = ObjectType(node.name, args)
        node.resolved = resolved  # annotation for the interpreter
        return resolved

    def _default_mode_args(self, info: ClassInfo,
                           context: ModeAtom) -> Tuple[ModeAtom, ...]:
        """Mode arguments for an elided ``@mode<...>`` use of a class.

        Dynamic classes default to ``?``; concrete-mode classes to their
        fixed mode; generic classes adopt the context's mode (so
        unannotated Java-style code flows at a single mode).
        """
        args: List[ModeAtom] = []
        for index, param in enumerate(info.params):
            if param.concrete is not None:
                args.append(param.concrete)
            elif param.dynamic and index == 0:
                args.append(DYN)
            else:
                args.append(context)
        return tuple(args)

    def _resolve_mode_args(self, nodes: List[ast.ModeArgNode],
                           info: ClassInfo,
                           mode_vars: Dict[str, ModeParam],
                           context: ModeAtom, span,
                           allow_dynamic: bool) -> Tuple[ModeAtom, ...]:
        if len(nodes) != len(info.params):
            raise EntTypeError(
                f"class {info.name} expects {len(info.params)} mode "
                f"argument(s), got {len(nodes)}", span)
        args: List[ModeAtom] = []
        for index, node in enumerate(nodes):
            if node.dynamic:
                if not allow_dynamic:
                    raise EntTypeError("'?' is not allowed here", node.span)
                if index != 0 or not info.params[0].dynamic:
                    raise EntTypeError(
                        f"'?' may only instantiate the dynamic parameter "
                        f"of a dynamic class", node.span)
                args.append(DYN)
                continue
            args.append(self._resolve_mode_atom(node.name, mode_vars,
                                                node.span))
        return tuple(args)

    def _resolve_mode_atom(self, name: str,
                           mode_vars: Dict[str, ModeParam],
                           span) -> ModeAtom:
        if name in mode_vars:
            return name
        const = self._mode_const(name)
        if const is not None:
            return const
        raise EntTypeError(
            f"{name!r} is neither a declared mode nor a mode variable in "
            f"scope", span)

    # ==================================================================
    # Phase 4: body checking

    def _base_constraints(self, info: ClassInfo,
                          extra: Optional[ModeParam] = None
                          ) -> ConstraintSet:
        key = (info.name, extra)
        cached = self._base_constraints_cache.get(key)
        if cached is not None:
            return cached
        pairs = []
        for param in info.params:
            pairs.extend(param.bounds_constraints())
        if extra is not None:
            pairs.extend(extra.bounds_constraints())
        constraints = ConstraintSet(self.lattice, pairs)
        self._base_constraints_cache[key] = constraints
        return constraints

    def _internal_this_type(self, info: ClassInfo) -> ObjectType:
        return ObjectType(info.name,
                          tuple(p.internal_atom for p in info.params))

    def _external_this_type(self, info: ClassInfo) -> ObjectType:
        """``this`` as seen by attributors: ``c⟨?, ι⟩``."""
        atoms: List[ModeAtom] = [DYN]
        atoms.extend(p.internal_atom for p in info.params[1:])
        return ObjectType(info.name, tuple(atoms))

    def _check_class(self, cls: ast.ClassDecl) -> None:
        info = self.table.get(cls.name)
        mode_vars = self._class_mode_vars(info)
        constraints = self._base_constraints(info)
        this_type = self._internal_this_type(info)
        # Superclass instantiation must satisfy the superclass's bounds.
        if info.superclass is not None and info.super_args:
            super_info = self.table.get(info.superclass)
            self._check_instantiation_bounds(super_info, info.super_args,
                                             constraints, cls.span)
        # Field initializers are evaluated at construction, in the
        # internal view.
        for fdecl in cls.fields:
            if fdecl.init is None:
                continue
            scope = _Scope(class_info=info, this_type=this_type,
                           sender_atom=info.internal_atom,
                           mode_vars=mode_vars, constraints=constraints)
            scope.push()
            declared = info.fields[fdecl.name].declared
            self._check_expr_expecting(fdecl.init, scope, declared)
        # Class attributor: external view, returns a mode.
        if cls.attributor is not None:
            self._check_attributor(cls.attributor, info, mode_vars)
        if cls.constructor is not None:
            self._check_constructor(cls, info, mode_vars, constraints,
                                    this_type)
        for mdecl in cls.methods:
            self._check_method(info, info.methods[mdecl.name], mdecl)
        self._check_override_compatibility(info)

    def _check_override_compatibility(self, info: ClassInfo) -> None:
        """Overriding methods must preserve arity (we require identical
        parameter counts; full variance checking is out of scope) and
        the mode-case-ness of every parameter and of the return type:
        where a mode case is eliminated is decided statically
        (``implicit_elim``), so it must hold for every dispatch target.
        A field may not redeclare an inherited one (Featherweight Java's
        rule: an object has one slot per field name)."""
        for super_info in self.table.ancestry(info.name)[1:]:
            for name, finfo in info.fields.items():
                if name in super_info.fields:
                    raise EntTypeError(
                        f"field {name!r} of {info.name} redeclares "
                        f"{super_info.name}.{name}", finfo.decl.span)
            for name, minfo in info.methods.items():
                if name in super_info.methods:
                    smeth = super_info.methods[name]
                    if len(smeth.param_types) != len(minfo.param_types):
                        raise EntTypeError(
                            f"{info.name}.{name} overrides "
                            f"{super_info.name}.{name} with a different "
                            f"arity")
                    pairs = [(f"parameter {pname!r}", mine, theirs)
                             for pname, mine, theirs in zip(
                                 minfo.param_names, minfo.param_types,
                                 smeth.param_types)]
                    pairs.append(("the return type", minfo.return_type,
                                  smeth.return_type))
                    for what, mine, theirs in pairs:
                        if (isinstance(mine, ty.MCaseType)
                                != isinstance(theirs, ty.MCaseType)):
                            raise EntTypeError(
                                f"{info.name}.{name} overrides "
                                f"{super_info.name}.{name} with a "
                                f"different mode-case-ness: {what} is "
                                f"{mine}, not {theirs}", minfo.decl.span)

    def _check_attributor(self, attributor: ast.AttributorDecl,
                          info: ClassInfo,
                          mode_vars: Dict[str, ModeParam],
                          params: Optional[List[Tuple[str, Type]]] = None
                          ) -> None:
        scope = _Scope(class_info=info,
                       this_type=self._external_this_type(info),
                       sender_atom=BOTTOM,
                       mode_vars=dict(mode_vars),
                       constraints=self._base_constraints(info),
                       return_type=ty.MODE,
                       in_attributor=True)
        scope.push()
        for name, typ in params or []:
            scope.declare(name, typ, attributor.span)
        self._check_block(attributor.body, scope)
        if not self._always_returns(attributor.body):
            raise EntTypeError(
                f"attributor of {info.name} must return a mode on every "
                f"path", attributor.span)

    def _check_constructor(self, cls: ast.ClassDecl, info: ClassInfo,
                           mode_vars: Dict[str, ModeParam],
                           constraints: ConstraintSet,
                           this_type: ObjectType) -> None:
        ctor = cls.constructor
        assert ctor is not None
        scope = _Scope(class_info=info, this_type=this_type,
                       sender_atom=info.internal_atom,
                       mode_vars=mode_vars, constraints=constraints,
                       return_type=ty.VOID)
        scope.push()
        for p in ctor.params:
            declared = self._resolve_type(p.declared, mode_vars,
                                          info.internal_atom)
            scope.declare(p.name, declared, p.span)
        self._check_block(ctor.body, scope)

    def _check_method(self, info: ClassInfo, minfo: MethodInfo,
                      mdecl: ast.MethodDecl) -> None:
        mode_vars = self._class_mode_vars(info)
        sender: ModeAtom = info.internal_atom
        extra_param = None
        if minfo.mode_param is not None:
            mp = minfo.mode_param
            if mp.concrete is not None:
                # Mode-overridden method: the body runs at the override
                # mode (Listing 3's mediaCrawl).
                sender = mp.concrete
            else:
                assert mp.var is not None
                mode_vars = dict(mode_vars)
                mode_vars[mp.var] = mp
                sender = mp.var
                extra_param = mp
        constraints = self._base_constraints(info, extra_param)
        scope = _Scope(class_info=info,
                       this_type=self._internal_this_type(info),
                       sender_atom=sender, mode_vars=mode_vars,
                       constraints=constraints,
                       return_type=minfo.return_type)
        scope.push()
        for name, typ in zip(minfo.param_names, minfo.param_types):
            scope.declare(name, typ, mdecl.span)
        if mdecl.attributor is not None:
            # Method-level attributor: may inspect this and the arguments.
            params = list(zip(minfo.param_names, minfo.param_types))
            self._check_attributor(mdecl.attributor, info,
                                   self._class_mode_vars(info),
                                   params=params)
        self._check_block(mdecl.body, scope)
        if minfo.return_type != ty.VOID and not self._always_returns(
                mdecl.body):
            raise EntTypeError(
                f"method {info.name}.{minfo.name} must return a value on "
                f"every path", mdecl.span)

    # ------------------------------------------------------------------
    # Statements

    def _check_block(self, block: ast.Block, scope: _Scope) -> None:
        scope.push()
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)
        scope.pop()

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.LocalVarDecl):
            self._check_local_decl(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            cond = self._check_expr_expecting(stmt.cond, scope, ty.BOOLEAN)
            self._require_assignable(cond, ty.BOOLEAN, scope,
                                     stmt.span, "if condition")
            self._check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            cond = self._check_expr_expecting(stmt.cond, scope, ty.BOOLEAN)
            self._require_assignable(cond, ty.BOOLEAN, scope,
                                     stmt.span, "while condition")
            self._check_loop_body(stmt.body, scope)
        elif isinstance(stmt, ast.Foreach):
            self._check_foreach(stmt, scope)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt, scope)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not scope.loop_depth:
                word = "break" if isinstance(stmt, ast.Break) else "continue"
                raise EntTypeError(f"{word} outside a loop", stmt.span)
        elif isinstance(stmt, ast.TryCatch):
            if stmt.exc_class != "EnergyException":
                raise EntTypeError(
                    f"only EnergyException may be caught, not "
                    f"{stmt.exc_class!r}", stmt.span)
            self._check_stmt(stmt.body, scope)
            scope.push()
            scope.declare(stmt.exc_var, ty.STRING, stmt.span)
            self._check_stmt(stmt.handler, scope)
            scope.pop()
        elif isinstance(stmt, ast.Throw):
            typ = self._check_expr(stmt.expr, scope)
            self._require_assignable(typ, ty.STRING, scope, stmt.span,
                                     "throw (message)")
        else:  # pragma: no cover - parser produces no other statements
            raise EntTypeError(f"unsupported statement {type(stmt).__name__}",
                               stmt.span)

    def _check_loop_body(self, body: ast.Stmt, scope: _Scope) -> None:
        scope.loop_depth += 1
        self._check_stmt(body, scope)
        scope.loop_depth -= 1

    def _check_local_decl(self, stmt: ast.LocalVarDecl,
                          scope: _Scope) -> None:
        declared: Optional[Type] = None
        node = stmt.declared
        infer = (isinstance(node, ast.ClassTypeNode)
                 and node.mode_args is None
                 and node.name in self.table
                 and stmt.init is not None)
        if infer:
            # Mode inference from the initializer: `Agent a = snapshot da;`
            init_type = self._check_expr(stmt.init, scope)
            declared = self._infer_local_type(node, init_type, scope)
            stmt.resolved_type = declared
        else:
            declared = self._resolve_type(node, scope.mode_vars,
                                          scope.context_atom)
            stmt.resolved_type = declared
            if declared == ty.VOID:
                raise EntTypeError("local cannot have type void", stmt.span)
            if stmt.init is not None:
                init_type = self._check_expr_expecting(stmt.init, scope,
                                                       declared)
                self._require_assignable(init_type, declared, scope,
                                         stmt.span,
                                         f"initializer of {stmt.name!r}")
        scope.declare(stmt.name, declared, stmt.span)

    def _infer_local_type(self, node: ast.ClassTypeNode, init_type: Type,
                          scope: _Scope) -> Type:
        info = self.table.get(node.name)
        if isinstance(init_type, ObjectType):
            for step in self.table.supertype_chain(init_type):
                if step.class_name == node.name:
                    return step
            raise EntTypeError(
                f"initializer of type {init_type} is not a {node.name}",
                node.span)
        if init_type == ty.NULL:
            return ObjectType(node.name,
                              self._default_mode_args(info,
                                                      scope.context_atom))
        raise EntTypeError(
            f"cannot initialize {node.name} from {init_type}", node.span)

    def _check_assign(self, stmt: ast.Assign, scope: _Scope) -> None:
        target_type = self._check_lvalue(stmt.target, scope)
        value_type = self._check_expr_expecting(stmt.value, scope,
                                                target_type)
        self._require_assignable(value_type, target_type, scope, stmt.span,
                                 "assignment")

    def _check_lvalue(self, target: ast.Expr, scope: _Scope) -> Type:
        if isinstance(target, ast.Var):
            local = scope.lookup_local(target.name)
            if local is not None:
                target.resolved_kind = "local"
                return local
            # Implicit this-field write.
            try:
                _, ftype = self.table.lookup_field(scope.this_type,
                                                   target.name)
            except EntTypeError:
                raise EntTypeError(f"unknown variable {target.name!r}",
                                   target.span) from None
            target.resolved_kind = "field"
            return ftype
        if isinstance(target, ast.FieldAccess):
            obj_type = self._check_expr(target.obj, scope)
            if not isinstance(obj_type, ObjectType):
                raise EntTypeError(
                    f"cannot assign to a field of {obj_type}", target.span)
            _, ftype = self.table.lookup_field(obj_type, target.name)
            return ftype
        raise EntTypeError("invalid assignment target", target.span)

    def _check_foreach(self, stmt: ast.Foreach, scope: _Scope) -> None:
        iterable = self._check_expr(stmt.iterable, scope)
        if iterable != ty.LIST:
            raise EntTypeError(
                f"foreach requires a List, got {iterable}", stmt.span)
        var_type = self._resolve_type(stmt.var_type, scope.mode_vars,
                                      scope.context_atom)
        stmt.resolved_var_type = var_type
        scope.push()
        scope.declare(stmt.var_name, var_type, stmt.span)
        self._check_loop_body(stmt.body, scope)
        scope.pop()

    def _check_return(self, stmt: ast.Return, scope: _Scope) -> None:
        if scope.return_type == ty.VOID:
            if stmt.expr is not None:
                raise EntTypeError("void method cannot return a value",
                                   stmt.span)
            return
        if stmt.expr is None:
            raise EntTypeError(
                f"missing return value (expected {scope.return_type})",
                stmt.span)
        typ = self._check_expr_expecting(stmt.expr, scope, scope.return_type)
        self._require_assignable(typ, scope.return_type, scope, stmt.span,
                                 "return")

    def _always_returns(self, stmt: ast.Stmt) -> bool:
        if isinstance(stmt, ast.Return):
            return True
        if isinstance(stmt, ast.Throw):
            return True
        if isinstance(stmt, ast.Block):
            return any(self._always_returns(s) for s in stmt.stmts)
        if isinstance(stmt, ast.If):
            return (stmt.otherwise is not None
                    and self._always_returns(stmt.then)
                    and self._always_returns(stmt.otherwise))
        if isinstance(stmt, ast.TryCatch):
            return (self._always_returns(stmt.body)
                    and self._always_returns(stmt.handler))
        return False

    # ------------------------------------------------------------------
    # Expressions

    def _check_expr_expecting(self, expr: ast.Expr, scope: _Scope,
                              expected: Optional[Type]) -> Type:
        """Check ``expr``; implicitly eliminate a resulting mode case
        unless the context expects an mcase (T-ElimCase, implicit form)."""
        typ = self._check_expr_raw(expr, scope, expected)
        if isinstance(typ, ty.MCaseType) and not isinstance(
                expected, ty.MCaseType):
            return self._implicit_elim(expr, typ, scope)
        return typ

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> Type:
        return self._check_expr_expecting(expr, scope, None)

    def _implicit_elim(self, expr: ast.Expr, typ: ty.MCaseType,
                       scope: _Scope) -> Type:
        """Project a mode case on the enclosing object's mode."""
        atom = self._enclosing_mode_for_elim(expr, scope)
        if atom is DYN:
            raise EntTypeError(
                "cannot eliminate a mode case against a dynamic mode; "
                "snapshot the enclosing object first", expr.span)
        expr.implicit_elim = True
        return typ.element

    def _enclosing_mode_for_elim(self, expr: ast.Expr,
                                 scope: _Scope) -> ModeAtom:
        # For a field access the enclosing object is the field's owner;
        # otherwise the current receiver.
        if isinstance(expr, ast.FieldAccess):
            owner = getattr(expr, "owner_omode", None)
            if owner is not None:
                return owner
        if scope.in_attributor:
            return DYN
        return scope.this_type.omode

    def _check_expr_raw(self, expr: ast.Expr, scope: _Scope,
                        expected: Optional[Type]) -> Type:
        # The node classes are disjoint; the commonest are tested first.
        if isinstance(expr, ast.Var):
            return self._check_var(expr, scope)
        if isinstance(expr, ast.IntLit):
            return ty.INT
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, scope)
        if isinstance(expr, ast.MethodCall):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.FieldAccess):
            return self._check_field_access(expr, scope)
        if isinstance(expr, ast.New):
            return self._check_new(expr, scope)
        if isinstance(expr, ast.StringLit):
            return ty.STRING
        if isinstance(expr, ast.This):
            return scope.this_type
        if isinstance(expr, ast.FloatLit):
            return ty.DOUBLE
        if isinstance(expr, ast.BoolLit):
            return ty.BOOLEAN
        if isinstance(expr, ast.NullLit):
            return ty.NULL
        if isinstance(expr, ast.Cast):
            return self._check_cast(expr, scope)
        if isinstance(expr, ast.Snapshot):
            return self._check_snapshot(expr, scope)
        if isinstance(expr, ast.MCaseExpr):
            return self._check_mcase(expr, scope, expected)
        if isinstance(expr, ast.MSelect):
            return self._check_mselect(expr, scope)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr, scope)
        if isinstance(expr, ast.ListLit):
            for element in expr.elements:
                self._check_expr(element, scope)
            return ty.LIST
        if isinstance(expr, ast.InstanceOf):
            return self._check_instanceof(expr, scope)
        raise EntTypeError(  # pragma: no cover
            f"unsupported expression {type(expr).__name__}", expr.span)

    def _check_var(self, expr: ast.Var, scope: _Scope) -> Type:
        local = scope.lookup_local(expr.name)
        if local is not None:
            expr.resolved_kind = "local"
            return local
        # Implicit this-field read.
        try:
            _, ftype = self.table.lookup_field(scope.this_type, expr.name)
            expr.resolved_kind = "field"
            expr.owner_omode = scope.this_type.omode
            return ftype
        except EntTypeError:
            pass
        const = self._mode_const(expr.name)
        if const is not None:
            expr.resolved_kind = "mode"
            return ty.MODE
        if expr.name in NATIVE_STATIC_CLASSES:
            expr.resolved_kind = "native"
            return ty.NativeType(expr.name)
        raise EntTypeError(f"unknown variable {expr.name!r}", expr.span)

    def _check_field_access(self, expr: ast.FieldAccess,
                            scope: _Scope) -> Type:
        obj_type = self._check_expr(expr.obj, scope)
        if isinstance(obj_type, ObjectType):
            _, ftype = self.table.lookup_field(obj_type, expr.name)
            expr.owner_omode = obj_type.omode
            return ftype
        raise EntTypeError(
            f"cannot access field {expr.name!r} on {obj_type}", expr.span)

    # -- messaging ------------------------------------------------------

    def _check_call(self, expr: ast.MethodCall, scope: _Scope) -> Type:
        if expr.receiver is None:
            return self._check_user_call(expr, scope.this_type, scope,
                                         self_call=True)
        receiver_type = self._check_expr(expr.receiver, scope)
        if receiver_type == ty.ANY:
            raise EntTypeError(
                f"cannot invoke {expr.name!r} on a type-erased List "
                f"element; cast it to a class type first", expr.span)
        if isinstance(receiver_type, ty.NativeType):
            return self._check_native_call(expr, receiver_type, scope)
        if receiver_type == ty.STRING:
            return self._check_string_method(expr, scope)
        if isinstance(receiver_type, ObjectType):
            self_call = isinstance(expr.receiver, ast.This)
            return self._check_user_call(expr, receiver_type, scope,
                                         self_call=self_call)
        if receiver_type == ty.ANY:
            raise EntTypeError(
                f"cannot invoke {expr.name!r} on a type-erased List "
                f"element; cast it to a class type first", expr.span)
        raise EntTypeError(
            f"cannot invoke {expr.name!r} on {receiver_type}", expr.span)

    def _check_user_call(self, expr: ast.MethodCall,
                         receiver_type: ObjectType, scope: _Scope,
                         self_call: bool) -> Type:
        minfo, mapping = self.table.lookup_method(receiver_type, expr.name)
        if len(expr.args) != len(minfo.param_types):
            raise EntTypeError(
                f"{receiver_type.class_name}.{expr.name} expects "
                f"{len(minfo.param_types)} argument(s), got "
                f"{len(expr.args)}", expr.span)
        arg_types: List[Type] = []
        method_var = (minfo.mode_param.var
                      if minfo.mode_param is not None else None)
        # First pass: check arguments (inferring a generic method's mode
        # variable from the argument types, Java-generics style).
        for arg, ptype in zip(expr.args, minfo.param_types):
            expected = ptype.substitute(
                {k: v for k, v in mapping.items() if k != method_var})
            arg_type = self._check_expr_expecting(arg, scope, expected)
            arg_types.append(arg_type)
        if method_var is not None and not minfo.has_attributor:
            binding = self._infer_method_mode(minfo, mapping, arg_types,
                                              expr)
            mapping[method_var] = binding
        full_subst = dict(mapping)
        if method_var is not None and method_var not in full_subst:
            # Dynamic method (attributor): mode determined at run time.
            full_subst[method_var] = DYN
        for arg, arg_type, ptype in zip(expr.args, arg_types,
                                        minfo.param_types):
            expected = ptype.substitute(full_subst)
            self._require_assignable(arg_type, expected, scope, arg.span,
                                     f"argument to {expr.name!r}")
        self._check_msg_waterfall(expr, receiver_type, minfo, full_subst,
                                  scope, self_call)
        # Annotations for repro.analysis (see ast_nodes.MethodCall).
        expr.resolved_receiver_type = receiver_type
        expr.resolved_minfo = minfo
        expr.resolved_self_call = self_call
        return minfo.return_type.substitute(full_subst)

    def _infer_method_mode(self, minfo: MethodInfo,
                           class_mapping: Dict[str, ModeAtom],
                           arg_types: List[Type],
                           expr: ast.MethodCall) -> ModeAtom:
        var = minfo.mode_param.var
        assert var is not None
        bindings: List[ModeAtom] = []
        for ptype, atype in zip(minfo.param_types, arg_types):
            declared = ptype.substitute(
                {k: v for k, v in class_mapping.items() if k != var})
            bindings.extend(self._collect_bindings(declared, atype, var))
        if not bindings:
            raise EntTypeError(
                f"cannot infer mode parameter {var!r} of method "
                f"{minfo.owner}.{minfo.name} from its arguments",
                expr.span)
        first = bindings[0]
        for other in bindings[1:]:
            if other != first:
                raise EntTypeError(
                    f"conflicting inferences for mode parameter {var!r}: "
                    f"{ty.atom_str(first)} vs {ty.atom_str(other)}",
                    expr.span)
        return first

    def _collect_bindings(self, declared: Type, actual: Type,
                          var: str) -> List[ModeAtom]:
        out: List[ModeAtom] = []
        if isinstance(declared, ObjectType) and isinstance(actual,
                                                           ObjectType):
            # Align the actual type with the declared class.
            for step in self.table.supertype_chain(actual):
                if step.class_name == declared.class_name:
                    actual = step
                    break
            else:
                return out
            for datom, aatom in zip(declared.mode_args, actual.mode_args):
                if datom == var:
                    out.append(aatom)
        elif isinstance(declared, ty.MCaseType) and isinstance(
                actual, ty.MCaseType):
            out.extend(self._collect_bindings(declared.element,
                                              actual.element, var))
        return out

    def _check_msg_waterfall(self, expr: ast.MethodCall,
                             receiver_type: ObjectType, minfo: MethodInfo,
                             subst: Dict[str, ModeAtom], scope: _Scope,
                             self_call: bool) -> None:
        """T-Msg: enforce sfall, with method-level mode overrides."""
        guard: Optional[ModeAtom] = None
        if minfo.mode_param is not None:
            mp = minfo.mode_param
            if mp.concrete is not None:
                guard = mp.concrete
            else:
                guard = subst.get(mp.var, DYN)
            if minfo.has_attributor:
                # Method-level attributor: mode checked at run time
                # (analogous to snapshotting).
                expr.runtime_mode_check = True
                return
        else:
            if self_call:
                # Internal view: an object may always message itself.
                return
            if self.table.get(receiver_type.class_name).transparent:
                # Plain-Java receiver: runs at the caller's mode, no
                # waterfall check needed.
                return
            guard = receiver_type.omode
        if guard is DYN:
            if minfo.mode_param is not None:
                # A generic method instantiated at ?: its cost tracks a
                # dynamic argument whose own uses are checked separately.
                expr.runtime_mode_check = True
                return
            raise WaterfallError(
                f"cannot message {receiver_type}: its mode is dynamic; "
                f"snapshot it first", expr.span)
        sender = scope.sender_atom
        if sender is DYN or scope.in_attributor:
            if not scope.constraints.entails_one(guard, BOTTOM):
                raise WaterfallError(
                    f"attributors may not message mode-carrying objects "
                    f"(receiver mode {ty.atom_str(guard)})", expr.span)
            return
        if not scope.constraints.entails_one(guard, sender):
            raise WaterfallError(
                f"waterfall invariant violated: receiver mode "
                f"{ty.atom_str(guard)} is not <= sender mode "
                f"{ty.atom_str(sender)} (method "
                f"{receiver_type.class_name}.{expr.name})", expr.span)

    def _check_native_call(self, expr: ast.MethodCall,
                           receiver: ty.NativeType, scope: _Scope) -> Type:
        arg_types = [self._check_expr(arg, scope) for arg in expr.args]
        if receiver == ty.LIST:
            result = native_value_method_return("List", expr.name,
                                                arg_types)
        else:
            result = native_static_return(receiver.name, expr.name,
                                          arg_types)
        if result is None:
            raise EntTypeError(
                f"unknown native method {receiver.name}.{expr.name} for "
                f"{len(arg_types)} argument(s)", expr.span)
        return result

    def _check_string_method(self, expr: ast.MethodCall,
                             scope: _Scope) -> Type:
        arg_types = [self._check_expr(arg, scope) for arg in expr.args]
        result = native_value_method_return("String", expr.name, arg_types)
        if result is None:
            raise EntTypeError(f"unknown String method {expr.name!r}",
                               expr.span)
        return result

    # -- object creation -------------------------------------------------

    def _check_new(self, expr: ast.New, scope: _Scope) -> Type:
        if expr.class_name == "List":
            if expr.mode_args is not None or expr.args:
                raise EntTypeError("new List() takes no arguments",
                                   expr.span)
            expr.resolved_type = ty.LIST
            return ty.LIST
        if expr.class_name not in self.table:
            raise EntTypeError(f"unknown class {expr.class_name!r}",
                               expr.span)
        info = self.table.get(expr.class_name)
        if expr.mode_args is None:
            args = self._default_mode_args(info, scope.context_atom)
        else:
            args = self._resolve_mode_args(expr.mode_args, info,
                                           scope.mode_vars,
                                           scope.context_atom, expr.span,
                                           allow_dynamic=True)
        # T-New: a dynamic class is instantiated at ?, and only at ?.
        if info.is_dynamic and args[0] is not DYN:
            raise EntTypeError(
                f"dynamic class {info.name} must be instantiated at '?'; "
                f"obtain a static mode via snapshot", expr.span)
        if not info.is_dynamic and args and args[0] is DYN:
            raise EntTypeError(
                f"class {info.name} is not dynamic; cannot instantiate "
                f"at '?'", expr.span)
        self._check_instantiation_bounds(info, args, scope.constraints,
                                         expr.span)
        result = ObjectType(expr.class_name, args)
        expr.resolved_type = result
        # Constructor arguments.
        ctor = info.decl.constructor if info.decl is not None else None
        mapping = self.table.instantiate(info, args)
        if ctor is None:
            if expr.args:
                raise EntTypeError(
                    f"class {info.name} has no constructor but received "
                    f"arguments", expr.span)
        else:
            if len(expr.args) != len(ctor.params):
                raise EntTypeError(
                    f"constructor of {info.name} expects "
                    f"{len(ctor.params)} argument(s), got "
                    f"{len(expr.args)}", expr.span)
            class_vars = self._class_mode_vars(info)
            for arg, param in zip(expr.args, ctor.params):
                declared = self._resolve_type(param.declared, class_vars,
                                              info.internal_atom)
                expected = declared.substitute(mapping)
                atype = self._check_expr_expecting(arg, scope, expected)
                self._require_assignable(
                    atype, expected, scope, arg.span,
                    f"constructor argument {param.name!r}")
        return result

    def _check_instantiation_bounds(self, info: ClassInfo,
                                    args: Tuple[ModeAtom, ...],
                                    constraints: ConstraintSet,
                                    span) -> None:
        """``K ⊩ cons(∆{ι/params})`` from T-New."""
        for param, arg in zip(info.params, args):
            if arg is DYN:
                continue
            if param.concrete is not None:
                if arg != param.concrete:
                    raise EntTypeError(
                        f"class {info.name} is fixed at mode "
                        f"{param.concrete}, cannot instantiate at "
                        f"{ty.atom_str(arg)}", span)
                continue
            if not constraints.entails_one(param.lower, arg):
                raise EntTypeError(
                    f"mode argument {ty.atom_str(arg)} violates lower "
                    f"bound {param.lower} of {info.name}", span)
            if not constraints.entails_one(arg, param.upper):
                raise EntTypeError(
                    f"mode argument {ty.atom_str(arg)} violates upper "
                    f"bound {param.upper} of {info.name}", span)

    # -- casts, snapshot, mcase ------------------------------------------

    def _check_cast(self, expr: ast.Cast, scope: _Scope) -> Type:
        target = self._resolve_type(expr.target, scope.mode_vars,
                                    scope.context_atom)
        expr.resolved_target = target
        source = self._check_expr_expecting(expr.expr, scope, target)
        if target in (ty.INT, ty.DOUBLE) and source in (ty.INT, ty.DOUBLE):
            return target
        if source in (ty.NULL, ty.ANY):
            # Downcast from a type-erased List element: run-time checked.
            return target
        if isinstance(target, ObjectType) and isinstance(source,
                                                         ObjectType):
            up = self.table.is_subclass(source.class_name,
                                        target.class_name)
            down = self.table.is_subclass(target.class_name,
                                          source.class_name)
            if not (up or down):
                raise EntTypeError(
                    f"impossible cast from {source} to {target}", expr.span)
            return target
        if target == source:
            return target
        raise EntTypeError(f"cannot cast {source} to {target}", expr.span)

    def _check_snapshot(self, expr: ast.Snapshot, scope: _Scope) -> Type:
        source = self._check_expr(expr.expr, scope)
        if not isinstance(source, ObjectType):
            raise EntTypeError(f"cannot snapshot {source}", expr.span)
        if source.omode is not DYN:
            raise EntTypeError(
                f"snapshot requires an object of dynamic mode, got "
                f"{source}", expr.span)
        if self.table.attributor(source.class_name) is None:
            raise EntTypeError(
                f"class {source.class_name} has no attributor", expr.span)
        lower = self._resolve_snapshot_bound(expr.lower, BOTTOM, scope)
        upper = self._resolve_snapshot_bound(expr.upper, TOP, scope)
        # T-Snapshot: open the bounded existential with a fresh variable.
        fresh = scope.fresh_var()
        scope.constraints = scope.constraints.extend(
            [(lower, fresh), (fresh, upper)])
        expr.resolved_bounds = (lower, upper)
        expr.opened_var = fresh
        expr.resolved_class_name = source.class_name
        return ObjectType(source.class_name,
                          (fresh,) + source.mode_args[1:])

    def _resolve_snapshot_bound(self, bound: Optional[ast.SnapshotBound],
                                default: Mode, scope: _Scope) -> ModeAtom:
        if bound is None or bound.name is None:
            return default
        return self._resolve_mode_atom(bound.name, scope.mode_vars,
                                       bound.span)

    def _check_mcase(self, expr: ast.MCaseExpr, scope: _Scope,
                     expected: Optional[Type]) -> Type:
        element: Optional[Type] = None
        if expr.element is not None:
            element = self._resolve_type(expr.element, scope.mode_vars,
                                         scope.context_atom)
        elif isinstance(expected, ty.MCaseType):
            element = expected.element
        seen = set()
        has_default = False
        branch_types: List[Type] = []
        for branch in expr.branches:
            if branch.mode_name is None:
                if has_default:
                    raise EntTypeError("duplicate default branch",
                                       branch.span)
                has_default = True
            else:
                const = self._mode_const(branch.mode_name)
                if const is None:
                    raise EntTypeError(
                        f"mcase branch {branch.mode_name!r} is not a "
                        f"declared mode", branch.span)
                if const in seen:
                    raise EntTypeError(
                        f"duplicate mcase branch for mode {const}",
                        branch.span)
                seen.add(const)
            btype = self._check_expr_expecting(branch.expr, scope, element)
            branch_types.append(btype)
        if not expr.branches:
            raise EntTypeError("empty mcase expression", expr.span)
        if element is None:
            element = self._join_branch_types(branch_types, expr.span)
        for branch, btype in zip(expr.branches, branch_types):
            self._require_assignable(btype, element, scope, branch.span,
                                     "mcase branch")
        if not has_default:
            missing = self.lattice.declared_modes - seen
            if missing:
                names = ", ".join(sorted(m.name for m in missing))
                raise EntTypeError(
                    f"mcase does not cover modes: {names} (add branches "
                    f"or a default)", expr.span)
        expr.resolved_element = element
        return ty.MCaseType(element)

    def _join_branch_types(self, branch_types: List[Type],
                           span) -> Type:
        first = branch_types[0]
        for other in branch_types[1:]:
            if other != first:
                if {first, other} == {ty.INT, ty.DOUBLE}:
                    first = ty.DOUBLE
                    continue
                raise EntTypeError(
                    f"mcase branches have incompatible types {first} and "
                    f"{other}; annotate the element type", span)
        return first

    def _check_mselect(self, expr: ast.MSelect, scope: _Scope) -> Type:
        inner = self._check_expr_raw(expr.expr, scope,
                                     ty.MCaseType(ty.VOID))
        if not isinstance(inner, ty.MCaseType):
            raise EntTypeError(
                f"mselect requires an mcase value, got {inner}", expr.span)
        atom = self._resolve_mode_atom(expr.mode_name, scope.mode_vars,
                                       expr.span)
        param = scope.mode_vars.get(expr.mode_name)
        if scope.in_attributor and param is not None and param.dynamic:
            # Inside an attributor the object is not yet tagged: its
            # dynamic mode variable has no value, as for an implicit
            # elimination (``_enclosing_mode_for_elim``).
            raise EntTypeError(
                "cannot eliminate a mode case against a dynamic mode; "
                "snapshot the enclosing object first", expr.span)
        expr.resolved_mode = atom
        return inner.element

    # -- operators ---------------------------------------------------------

    _NUMERIC = {"+", "-", "*", "/", "%"}
    _COMPARE = {"<", "<=", ">", ">="}
    _EQUALITY = {"==", "!="}
    _LOGICAL = {"&&", "||"}

    def _check_binary(self, expr: ast.Binary, scope: _Scope) -> Type:
        left = self._check_expr(expr.left, scope)
        right = self._check_expr(expr.right, scope)
        op = expr.op
        if op == "+" and (left == ty.STRING or right == ty.STRING):
            return ty.STRING
        if op in self._NUMERIC:
            if left in (ty.INT, ty.DOUBLE) and right in (ty.INT, ty.DOUBLE):
                return ty.DOUBLE if ty.DOUBLE in (left, right) else ty.INT
            raise EntTypeError(
                f"operator {op!r} requires numeric operands, got {left} "
                f"and {right}", expr.span)
        if op in self._COMPARE:
            if left in (ty.INT, ty.DOUBLE) and right in (ty.INT, ty.DOUBLE):
                return ty.BOOLEAN
            raise EntTypeError(
                f"operator {op!r} requires numeric operands, got {left} "
                f"and {right}", expr.span)
        if op in self._EQUALITY:
            return ty.BOOLEAN
        if op in self._LOGICAL:
            for side, typ in (("left", left), ("right", right)):
                if typ != ty.BOOLEAN:
                    raise EntTypeError(
                        f"operator {op!r} requires boolean operands; "
                        f"{side} operand is {typ}", expr.span)
            return ty.BOOLEAN
        raise EntTypeError(f"unknown operator {op!r}",
                           expr.span)  # pragma: no cover

    def _check_unary(self, expr: ast.Unary, scope: _Scope) -> Type:
        inner = self._check_expr(expr.expr, scope)
        if expr.op == "-":
            if inner in (ty.INT, ty.DOUBLE):
                return inner
            raise EntTypeError(f"cannot negate {inner}", expr.span)
        if expr.op == "!":
            if inner == ty.BOOLEAN:
                return ty.BOOLEAN
            raise EntTypeError(f"cannot apply '!' to {inner}", expr.span)
        raise EntTypeError(f"unknown unary operator {expr.op!r}",
                           expr.span)  # pragma: no cover

    def _check_instanceof(self, expr: ast.InstanceOf,
                          scope: _Scope) -> Type:
        inner = self._check_expr(expr.expr, scope)
        if expr.class_name not in self.table:
            raise EntTypeError(f"unknown class {expr.class_name!r}",
                               expr.span)
        if not isinstance(inner, ObjectType) and inner not in (ty.NULL,
                                                               ty.ANY):
            raise EntTypeError(
                f"instanceof requires an object, got {inner}", expr.span)
        return ty.BOOLEAN

    # ------------------------------------------------------------------
    # Subtyping / assignability

    def _require_assignable(self, source: Type, target: Type,
                            scope: _Scope, span, context: str) -> None:
        if not self._assignable(source, target, scope.constraints):
            raise EntTypeError(
                f"{context}: {source} is not assignable to {target}", span)

    def _assignable(self, source: Type, target: Type,
                    constraints: ConstraintSet) -> bool:
        if source == target:
            return True
        if source == ty.ANY or target == ty.ANY:
            # The type-erased element type of native Lists: statically
            # permissive, checked by casts at run time.
            return True
        if source == ty.NULL:
            return isinstance(target, (ObjectType, ty.MCaseType,
                                       ty.NativeType)) or target == ty.STRING
        if source == ty.INT and target == ty.DOUBLE:
            return True
        if isinstance(source, ty.MCaseType) and isinstance(
                target, ty.MCaseType):
            return self._assignable(source.element, target.element,
                                    constraints)
        if isinstance(source, ObjectType) and isinstance(target,
                                                         ObjectType):
            for step in self.table.supertype_chain(source):
                if step.class_name == target.class_name:
                    if self.table.get(target.class_name).transparent:
                        # Mode-transparent (unannotated) classes flow
                        # freely across mode contexts.
                        return True
                    return self._mode_args_equivalent(
                        step.mode_args, target.mode_args, constraints)
            return False
        return False

    def _mode_args_equivalent(self, left: Tuple[ModeAtom, ...],
                              right: Tuple[ModeAtom, ...],
                              constraints: ConstraintSet) -> bool:
        """Mode arguments are invariant (non-equivocation): each pair must
        be provably equal under the constraint set, or both dynamic."""
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if a is DYN or b is DYN:
                if a is not b:
                    return False
                continue
            if a == b:
                continue
            if not (constraints.entails_one(a, b)
                    and constraints.entails_one(b, a)):
                return False
        return True


def check_program(source_or_program,
                  filename: str = "<ent>") -> CheckedProgram:
    """Parse (if given text) and typecheck an ENT program; ``filename``
    names the source in error spans."""
    if isinstance(source_or_program, str):
        from repro.lang.parser import parse_program
        program = parse_program(source_or_program, filename)
    else:
        program = source_or_program
    return TypeChecker(program).check()
