"""Abstract syntax for the ENT surface language.

The grammar follows the paper's formal core (Featherweight Java plus the
ENT-specific forms: ``modes`` declarations, mode-annotated classes and
methods, attributors, ``snapshot``, ``mcase`` and mode-case elimination),
extended with the imperative conveniences the paper's listings use freely:
statements, locals, assignment, conditionals, loops, ``foreach``,
``try``/``catch`` over ``EnergyException``, and primitive types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.errors import SourceSpan

# ---------------------------------------------------------------------------
# Type syntax


@dataclass
class TypeNode:
    """Base class for surface type syntax."""

    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class PrimTypeNode(TypeNode):
    """``int``, ``double``, ``boolean``, ``String``, ``void`` or ``mode``."""

    name: str = ""


@dataclass
class ModeArgNode:
    """One entry in a use-site ``@mode<...>`` argument list.

    ``dynamic`` renders ``?``; otherwise ``name`` is a mode constant or a
    mode variable in scope (resolved during typechecking).
    """

    dynamic: bool = False
    name: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class ClassTypeNode(TypeNode):
    """``C`` or ``C@mode<...>``.  ``mode_args is None`` means elided."""

    name: str = ""
    mode_args: Optional[List[ModeArgNode]] = None


@dataclass
class MCaseTypeNode(TypeNode):
    """``mcase<T>``."""

    element: TypeNode = field(default_factory=PrimTypeNode)


# ---------------------------------------------------------------------------
# Mode parameter syntax (declaration sites)


@dataclass
class ModeParamNode:
    """One declaration-site mode parameter.

    Forms accepted by the parser::

        ?                    dynamic, anonymous internal variable
        ?X                   dynamic, internal variable X
        X                    static generic variable X
        m                    concrete mode m (only legal as first param)
        lo <= X <= hi        bounded variants of the above (also ?lo<=X<=hi)
    """

    dynamic: bool = False
    var: Optional[str] = None       # variable name, if any
    concrete: Optional[str] = None  # concrete mode name, if fixed
    lower: Optional[str] = None     # bound names; None means bottom/top
    upper: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    span: Optional[SourceSpan] = field(default=None, kw_only=True)

    # Set by the typechecker (T-ElimCase, implicit form) on a mode-case-
    # typed expression used where a non-mcase is expected: every engine
    # eliminates the node's value there, and nowhere else.  Class-level
    # default for getattr-free hot-path reads, like ``Var.resolved_kind``.
    implicit_elim = False


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class NullLit(Expr):
    pass


@dataclass
class Var(Expr):
    """An identifier.  May resolve to a local, a parameter, an implicit
    field of ``this``, a mode constant (inside attributors / mcase code),
    or a native static class (e.g. ``Ext``)."""

    name: str = ""

    # The typechecker overwrites this with an instance attribute
    # ("local" / "field" / "mode" / "native").  The class-level default
    # lets the interpreter's hot path read ``expr.resolved_kind``
    # directly instead of paying for ``getattr`` with a fallback.
    resolved_kind = None


@dataclass
class This(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    obj: Expr = field(default_factory=This)
    name: str = ""


@dataclass
class MethodCall(Expr):
    receiver: Optional[Expr] = None  # None => implicit this
    name: str = ""
    args: List[Expr] = field(default_factory=list)

    # Typechecker annotations (instance attributes overwrite the
    # class-level defaults, the ``Var.resolved_kind`` idiom): the
    # receiver's static type, the resolved method, and whether the call
    # is statically a self message.  ``runtime_mode_check`` marks calls
    # whose guard mode is only known at run time (method attributor /
    # generic method at ``?``).
    resolved_receiver_type = None
    resolved_minfo = None
    resolved_self_call = False
    runtime_mode_check = False
    # Set by repro.analysis.planner when the dfall check at this site is
    # proven to always hold; every engine skips it when
    # ``InterpOptions.elide_checks`` is on.
    elide_dfall = False


@dataclass
class New(Expr):
    class_name: str = ""
    mode_args: Optional[List[ModeArgNode]] = None
    args: List[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    target: TypeNode = field(default_factory=PrimTypeNode)
    expr: Expr = field(default_factory=NullLit)


@dataclass
class SnapshotBound:
    """One end of a ``snapshot e [lo, hi]`` range.

    ``name is None`` means the bound was written ``_`` (unbounded); the
    name may be a mode constant or a mode variable in scope.
    """

    name: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class Snapshot(Expr):
    expr: Expr = field(default_factory=NullLit)
    lower: Optional[SnapshotBound] = None
    upper: Optional[SnapshotBound] = None

    # Typechecker annotation: the snapshotted expression's class name.
    resolved_class_name = None
    # Set by repro.analysis.planner when the bound check is proven to
    # always pass (vacuous bounds, or the attributor can only return
    # modes inside the bounds).
    elide_bound = False


@dataclass
class MCaseBranch:
    mode_name: Optional[str] = None  # None => default branch
    expr: Expr = field(default_factory=NullLit)
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class MCaseExpr(Expr):
    """``mcase<T>{ m1: e1; ...; default: e }`` (element type optional when
    the context determines it, e.g. an mcase-typed field initializer)."""

    element: Optional[TypeNode] = None
    branches: List[MCaseBranch] = field(default_factory=list)


@dataclass
class MSelect(Expr):
    """Explicit mode-case elimination ``mselect(e, m)`` — the paper's
    ``e ◃ η``.  ``mode_name`` may be a constant or a variable in scope."""

    expr: Expr = field(default_factory=NullLit)
    mode_name: str = ""


@dataclass
class Binary(Expr):
    op: str = "+"
    left: Expr = field(default_factory=NullLit)
    right: Expr = field(default_factory=NullLit)


@dataclass
class Unary(Expr):
    op: str = "-"
    expr: Expr = field(default_factory=NullLit)


@dataclass
class ListLit(Expr):
    """``[e1, ..., en]`` — builds a native ``List``."""

    elements: List[Expr] = field(default_factory=list)


@dataclass
class InstanceOf(Expr):
    expr: Expr = field(default_factory=NullLit)
    class_name: str = ""


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class LocalVarDecl(Stmt):
    declared: TypeNode = field(default_factory=PrimTypeNode)
    name: str = ""
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    target: Expr = field(default_factory=Var)  # Var or FieldAccess
    value: Expr = field(default_factory=NullLit)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = field(default_factory=NullLit)


@dataclass
class If(Stmt):
    cond: Expr = field(default_factory=BoolLit)
    then: Stmt = field(default_factory=Block)
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = field(default_factory=BoolLit)
    body: Stmt = field(default_factory=Block)


@dataclass
class Foreach(Stmt):
    var_type: TypeNode = field(default_factory=PrimTypeNode)
    var_name: str = ""
    iterable: Expr = field(default_factory=NullLit)
    body: Stmt = field(default_factory=Block)


@dataclass
class Return(Stmt):
    expr: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class TryCatch(Stmt):
    """``try { ... } catch (EnergyException x) { ... }``."""

    body: Stmt = field(default_factory=Block)
    exc_class: str = "EnergyException"
    exc_var: str = "e"
    handler: Stmt = field(default_factory=Block)


@dataclass
class Throw(Stmt):
    expr: Expr = field(default_factory=NullLit)


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class FieldDecl:
    declared: TypeNode = field(default_factory=PrimTypeNode)
    name: str = ""
    init: Optional[Expr] = None
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class AttributorDecl:
    """``attributor { ... }`` — body returns a mode value."""

    body: Block = field(default_factory=Block)
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class ParamDecl:
    declared: TypeNode = field(default_factory=PrimTypeNode)
    name: str = ""
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class MethodDecl:
    name: str = ""
    params: List[ParamDecl] = field(default_factory=list)
    return_type: TypeNode = field(default_factory=PrimTypeNode)
    body: Block = field(default_factory=Block)
    #: Method-level mode characterization: ``@mode<m>`` (override) or
    #: ``@mode<X>`` / ``@mode<?X>`` (mode-generic / dynamic method).
    mode_param: Optional[ModeParamNode] = None
    #: Method-level attributor (Listing 3's ``saveImages``).
    attributor: Optional[AttributorDecl] = None
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class ConstructorDecl:
    params: List[ParamDecl] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class ClassDecl:
    name: str = ""
    #: First mode parameter (None => unannotated class).
    mode_param: Optional[ModeParamNode] = None
    #: Extra generic mode parameters after the first.
    extra_params: List[ModeParamNode] = field(default_factory=list)
    superclass: str = "Object"
    #: Use-site mode arguments for the superclass (``extends D@mode<X>``).
    super_mode_args: Optional[List[ModeArgNode]] = None
    fields: List[FieldDecl] = field(default_factory=list)
    methods: List[MethodDecl] = field(default_factory=list)
    constructor: Optional[ConstructorDecl] = None
    attributor: Optional[AttributorDecl] = None
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class ModesDecl:
    """``modes { a <= b; c; }`` — ordering pairs plus bare mode names."""

    pairs: List[Tuple[str, str]] = field(default_factory=list)
    singletons: List[str] = field(default_factory=list)
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


@dataclass
class Program:
    modes: List[ModesDecl] = field(default_factory=list)
    classes: List[ClassDecl] = field(default_factory=list)
