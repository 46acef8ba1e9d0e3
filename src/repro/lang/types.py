"""Semantic types and the resolved class table for the ENT typechecker.

A *mode atom* (see :mod:`repro.core.constraints`) is either a concrete
:class:`~repro.core.modes.Mode`, a mode type variable (a string), or the
dynamic mode ``?`` represented by the :data:`DYN` sentinel.  Object types
carry a tuple of mode atoms — the paper's ``c⟨ι⟩`` — whose first element
is the object's mode (``omode``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.constraints import Atom
from repro.core.errors import EntTypeError
from repro.core.modes import BOTTOM, TOP, Mode
from repro.lang import ast_nodes as ast


class _Dynamic:
    """Singleton for the dynamic mode ``?``."""

    _instance: Optional["_Dynamic"] = None

    def __new__(cls) -> "_Dynamic":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "?"

    def __reduce__(self):
        return (_Dynamic, ())


#: The dynamic mode ``?``.
DYN = _Dynamic()

#: A use-site mode argument: concrete mode, variable name, or ``?``.
ModeAtom = Union[Mode, str, _Dynamic]


def is_dynamic(atom: ModeAtom) -> bool:
    return atom is DYN


def atom_str(atom: ModeAtom) -> str:
    if atom is DYN:
        return "?"
    return str(atom)


# ---------------------------------------------------------------------------
# Semantic types


class Type:
    """Base class of semantic types."""

    def substitute(self, mapping: Dict[str, ModeAtom]) -> "Type":
        return self


@dataclass(frozen=True)
class PrimType(Type):
    """``int``, ``double``, ``boolean``, ``String``, ``void``, ``mode`` or
    the type of ``null``."""

    name: str

    def __str__(self) -> str:
        return self.name


INT = PrimType("int")
DOUBLE = PrimType("double")
BOOLEAN = PrimType("boolean")
STRING = PrimType("String")
VOID = PrimType("void")
MODE = PrimType("mode")
NULL = PrimType("null")

_PRIM_BY_NAME = {t.name: t for t in (INT, DOUBLE, BOOLEAN, STRING, VOID, MODE)}


def prim_type(name: str) -> PrimType:
    try:
        return _PRIM_BY_NAME[name]
    except KeyError:
        raise EntTypeError(f"unknown primitive type {name!r}") from None


def _subst_atom(atom: ModeAtom, mapping: Dict[str, ModeAtom]) -> ModeAtom:
    if isinstance(atom, str) and atom in mapping:
        return mapping[atom]
    return atom


@dataclass(frozen=True)
class ObjectType(Type):
    """The paper's ``c⟨ι⟩``: a class name plus mode arguments."""

    class_name: str
    mode_args: Tuple[ModeAtom, ...]

    @property
    def omode(self) -> ModeAtom:
        """The object's mode: the first mode argument."""
        if not self.mode_args:
            raise EntTypeError(
                f"class {self.class_name} has an empty mode argument list")
        return self.mode_args[0]

    def substitute(self, mapping: Dict[str, ModeAtom]) -> "ObjectType":
        return ObjectType(self.class_name,
                          tuple(_subst_atom(a, mapping)
                                for a in self.mode_args))

    def __str__(self) -> str:
        args = ", ".join(atom_str(a) for a in self.mode_args)
        return f"{self.class_name}@mode<{args}>"


@dataclass(frozen=True)
class MCaseType(Type):
    """``mcase<T>``."""

    element: Type

    def substitute(self, mapping: Dict[str, ModeAtom]) -> "MCaseType":
        return MCaseType(self.element.substitute(mapping))

    def __str__(self) -> str:
        return f"mcase<{self.element}>"


@dataclass(frozen=True)
class NativeType(Type):
    """The type of a native class instance (e.g. ``List``) or the
    pseudo-type of a native static class reference (e.g. ``Ext``)."""

    name: str

    def __str__(self) -> str:
        return self.name


LIST = NativeType("List")

#: The type-erased element type of the native ``List`` (pre-generics Java
#: collections style): assignable to and from everything, with casts
#: checked at run time.
ANY = NativeType("Any")


# ---------------------------------------------------------------------------
# Mode parameters (declaration sites, resolved)


@dataclass(frozen=True)
class ModeParam:
    """A resolved declaration-site mode parameter.

    ``dynamic`` distinguishes the paper's ``? → ω`` first parameter from a
    plain static generic ``ω``; ``concrete`` is set instead of ``var`` for
    classes fixed at a single mode (``class C@mode<m>``).
    """

    dynamic: bool = False
    var: Optional[str] = None
    concrete: Optional[Mode] = None
    lower: Mode = BOTTOM
    upper: Mode = TOP

    @property
    def internal_atom(self) -> ModeAtom:
        """The atom naming this parameter inside the class body.

        For ``@mode<m>`` that is the concrete mode itself; otherwise the
        parameter's variable (the paper's ``param(∆)``).
        """
        if self.concrete is not None:
            return self.concrete
        assert self.var is not None
        return self.var

    def bounds_constraints(self) -> List[Tuple[Atom, Atom]]:
        """The paper's ``cons(ω)``: ``lo <= mt`` and ``mt <= hi``."""
        if self.var is None:
            return []
        return [(self.lower, self.var), (self.var, self.upper)]

    def __str__(self) -> str:
        if self.concrete is not None:
            return str(self.concrete)
        prefix = "?" if self.dynamic else ""
        body = self.var or "_"
        if self.lower is not BOTTOM or self.upper is not TOP:
            return f"{prefix}{self.lower} <= {body} <= {self.upper}"
        return f"{prefix}{body}"


# ---------------------------------------------------------------------------
# Class table


@dataclass
class MethodInfo:
    """A resolved method signature.

    ``mode_param`` is the method-level mode characterization, if any
    (concrete override, generic variable, or dynamic with attributor).
    Types mention the owning class's mode variables and, for generic
    methods, the method's own variable.  ``wants`` flags each parameter
    that is mode-case typed: its argument is passed un-eliminated.
    """

    name: str
    owner: str
    param_types: List[Type]
    param_names: List[str]
    return_type: Type
    mode_param: Optional[ModeParam] = None
    has_attributor: bool = False
    decl: Optional[ast.MethodDecl] = None
    wants: Tuple[bool, ...] = ()


@dataclass
class FieldInfo:
    name: str
    owner: str
    declared: Type
    decl: Optional[ast.FieldDecl] = None


@dataclass
class ClassInfo:
    """A resolved class: mode parameters, fields, methods, attributor."""

    name: str
    superclass: Optional[str]  # None only for Object
    params: List[ModeParam] = field(default_factory=list)
    #: True for classes declared without any @mode annotation ("plain
    #: Java" code): their objects are *mode-transparent* — messaging
    #: them needs no waterfall check and runs at the caller's mode, as
    #: if the code were inlined.  This is what makes unannotated code
    #: flow freely across mode contexts (the paper's backward
    #: compatibility story).
    transparent: bool = False
    #: Mode arguments passed to the superclass, in terms of our params.
    super_args: Tuple[ModeAtom, ...] = ()
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    decl: Optional[ast.ClassDecl] = None

    @property
    def is_dynamic(self) -> bool:
        """Does ``cmode(∆) = ?`` hold for this class?"""
        return bool(self.params) and self.params[0].dynamic

    @property
    def internal_atom(self) -> ModeAtom:
        """The mode of ``this`` inside method bodies (``param(∆)[0]``)."""
        if not self.params:
            raise EntTypeError(f"class {self.name} has no mode parameters")
        return self.params[0].internal_atom


#: One object's mode bindings, per class of its ancestry:
#: ``{class name: {mode variable: mode, or None for ?}}``.
Bindings = Dict[str, Dict[str, Optional[Mode]]]


class ClassTable:
    """All classes of a program, with inheritance-aware lookups.

    The one inheritance model: the typechecker, the analysis and every
    engine ask this table for a class's ancestry, the nearest
    declaration of a method (the paper's ``mbody``) or attributor, its
    fields (``fields``) and the mode bindings each ancestor of an
    object sees (the ``c⟨ι⟩`` chain).

    The per-class answers (ancestry, flattened method table, attributor,
    field list, bindings, supertype chain) are memoized: the table only
    ever grows (via :meth:`add`, which drops every memo), classes are
    immutable once registered, and the memoized answers are shared, so
    callers treat them as read-only.  :meth:`lookup_field`,
    :meth:`lookup_method` and :meth:`instantiate` substitute afresh on
    every call and hand out new objects.  :meth:`method` and
    :meth:`all_fields` read resolved members, so they answer only once
    the typechecker has resolved every signature.
    """

    def __init__(self) -> None:
        self._classes: Dict[str, ClassInfo] = {}
        object_info = ClassInfo(name="Object", superclass=None,
                                params=[ModeParam(var="$X_Object")])
        self._classes["Object"] = object_info
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._ancestry_cache: Dict[str, Tuple[ClassInfo, ...]] = {}
        self._chain_cache: Dict[ObjectType, Tuple[ObjectType, ...]] = {}
        self._fields_list_cache: Dict[str, Tuple["FieldInfo", ...]] = {}
        self._methods_cache: Dict[str, Dict[str, MethodInfo]] = {}
        self._attributor_class_cache: Dict[str, Optional[ClassInfo]] = {}
        self._bindings_cache: Dict[Tuple[str, Tuple[Optional[Mode], ...]],
                                   Bindings] = {}
        self._ancestor_names: Dict[str, FrozenSet[str]] = {}
        self._subclasses: Optional[Dict[str, List[ClassInfo]]] = None

    def add(self, info: ClassInfo) -> None:
        if info.name in self._classes:
            raise EntTypeError(f"duplicate class {info.name!r}")
        self._classes[info.name] = info
        self._reset_caches()

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> ClassInfo:
        try:
            return self._classes[name]
        except KeyError:
            raise EntTypeError(f"unknown class {name!r}") from None

    def classes(self) -> List[ClassInfo]:
        return list(self._classes.values())

    # ------------------------------------------------------------------

    def ancestry(self, name: str) -> Tuple[ClassInfo, ...]:
        """The class, then its superclasses, nearest first (ending at
        ``Object``).  Raises on an unknown superclass or a cycle."""
        cached = self._ancestry_cache.get(name)
        if cached is not None:
            return cached
        chain: List[ClassInfo] = []
        seen = set()
        current: Optional[str] = name
        while current is not None:
            if current in seen:
                raise EntTypeError(
                    f"inheritance cycle involving class {name!r}")
            seen.add(current)
            info = self.get(current)
            chain.append(info)
            current = info.superclass
        result = tuple(chain)
        self._ancestry_cache[name] = result
        return result

    def check_acyclic(self) -> None:
        for name in self._classes:
            self.ancestry(name)

    def _chain(self, name: str, args: tuple) -> List[Tuple[ClassInfo, tuple]]:
        """Each class in the ancestry of ``name`` with its mode arguments
        when ``name`` is instantiated at ``args`` (the ``c⟨ι⟩`` chain):
        the one substitution rule, read as types by
        :meth:`supertype_chain` and as run-time modes by :meth:`bindings`.
        """
        ancestry = self.ancestry(name)
        steps = [(ancestry[0], args)]
        for info, super_info in zip(ancestry, ancestry[1:]):
            mapping = self.instantiate(info, args)
            super_args = tuple(_subst_atom(a, mapping)
                               for a in info.super_args)
            if not super_args:
                # Default: pass our own mode through as the super's mode.
                passthrough = (args[0],) if info.params else (TOP,)
                super_args = passthrough + tuple(
                    p.upper for p in super_info.params[1:])
            args = super_args
            steps.append((super_info, args))
        return steps

    def supertype_chain(self, typ: ObjectType) -> Tuple[ObjectType, ...]:
        """``typ`` and all its supertypes with mode args substituted."""
        cached = self._chain_cache.get(typ)
        if cached is None:
            steps = self._chain(typ.class_name, typ.mode_args)
            cached = (typ,) + tuple(ObjectType(info.name, args)
                                    for info, args in steps[1:])
            self._chain_cache[typ] = cached
        return cached

    def instantiate(self, info: ClassInfo,
                    args: Tuple[ModeAtom, ...]) -> Dict[str, ModeAtom]:
        """The substitution mapping ``info``'s mode variables to
        ``args`` (a new mapping on every call)."""
        if len(args) != len(info.params):
            raise EntTypeError(
                f"class {info.name} expects {len(info.params)} mode "
                f"argument(s), got {len(args)}")
        mapping: Dict[str, ModeAtom] = {}
        for param, arg in zip(info.params, args):
            if param.var is not None:
                mapping[param.var] = arg
        return mapping

    def bindings(self, name: str,
                 args: Tuple[Optional[Mode], ...]) -> Bindings:
        """The mode variables each class in the ancestry of an object of
        class ``name`` instantiated at ``args`` (``None`` for ``?``)
        binds, by the substitution :meth:`supertype_chain` uses: a body
        runs under its declaring class's entry, so an ancestor that
        reuses a variable name sees its own argument.  Shared: treat it
        as read-only."""
        key = (name, args)
        cached = self._bindings_cache.get(key)
        if cached is None:
            cached = {info.name: {param.var: arg for param, arg
                                  in zip(info.params, step_args)
                                  if param.var is not None}
                      for info, step_args in self._chain(name, args)}
            self._bindings_cache[key] = cached
        return cached

    def is_subclass(self, sub: str, sup: str) -> bool:
        names = self._ancestor_names.get(sub)
        if names is None:
            names = frozenset(info.name for info in self.ancestry(sub))
            self._ancestor_names[sub] = names
        return sup in names

    def subclasses(self, name: str) -> List[ClassInfo]:
        """Every class except ``Object`` whose ancestry includes
        ``name`` (``name`` itself among them), in declaration order.
        One pass over all ancestries answers every class.  Shared:
        treat it as read-only."""
        table = self._subclasses
        if table is None:
            table = self._subclasses = {}
            for info in self._classes.values():
                if info.name != "Object":
                    for ancestor in self.ancestry(info.name):
                        table.setdefault(ancestor.name, []).append(info)
        return table.get(name, [])

    def lookup_field(self, typ: ObjectType,
                     name: str) -> Tuple[FieldInfo, Type]:
        """The paper's ``fields(T)``: find a field walking up the chain,
        returning its info and its declared type with this instantiation's
        mode arguments substituted in."""
        for step in self.supertype_chain(typ):
            info = self.get(step.class_name)
            if name in info.fields:
                finfo = info.fields[name]
                mapping = self.instantiate(info, step.mode_args)
                return finfo, finfo.declared.substitute(mapping)
        raise EntTypeError(
            f"no field {name!r} in class {typ.class_name}")

    def lookup_method(self, typ: ObjectType,
                      name: str) -> Tuple[MethodInfo, Dict[str, ModeAtom]]:
        """The paper's ``mtype``: find a method walking up the chain.

        Returns the method info together with a new substitution mapping
        the *owning* class's mode variables to this instantiation's atoms.
        """
        for step in self.supertype_chain(typ):
            info = self.get(step.class_name)
            if name in info.methods:
                return (info.methods[name],
                        self.instantiate(info, step.mode_args))
        raise EntTypeError(
            f"no method {name!r} in class {typ.class_name}")

    def method(self, class_name: str, name: str) -> Optional[MethodInfo]:
        """The nearest declaration of method ``name`` in the ancestry of
        ``class_name`` (the paper's ``mbody``), or None; one probe of a
        flattened per-class table."""
        table = self._methods_cache.get(class_name)
        if table is None:
            table = {}
            for info in reversed(self.ancestry(class_name)):
                table.update(info.methods)
            self._methods_cache[class_name] = table
        return table.get(name)

    def attributor(self, class_name: str) -> Optional[ClassInfo]:
        """The nearest class in the ancestry of ``class_name`` that
        declares a class attributor, or None."""
        try:
            return self._attributor_class_cache[class_name]
        except KeyError:
            pass
        found = next((info for info in self.ancestry(class_name)
                      if info.decl is not None
                      and info.decl.attributor is not None), None)
        self._attributor_class_cache[class_name] = found
        return found

    def all_fields(self, class_name: str) -> Tuple[FieldInfo, ...]:
        """Fields of a class including inherited ones (super first).
        Names are unique: the typechecker rejects a field that
        redeclares an inherited one."""
        cached = self._fields_list_cache.get(class_name)
        if cached is None:
            cached = tuple(finfo
                           for info in reversed(self.ancestry(class_name))
                           for finfo in info.fields.values())
            self._fields_list_cache[class_name] = cached
        return cached
