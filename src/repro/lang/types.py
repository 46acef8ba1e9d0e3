"""Semantic types and the resolved class table for the ENT typechecker.

A *mode atom* (see :mod:`repro.core.constraints`) is either a concrete
:class:`~repro.core.modes.Mode`, a mode type variable (a string), or the
dynamic mode ``?`` represented by the :data:`DYN` sentinel.  Object types
carry a tuple of mode atoms — the paper's ``c⟨ι⟩`` — whose first element
is the object's mode (``omode``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

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
    methods, the method's own variable.
    """

    name: str
    owner: str
    param_types: List[Type]
    param_names: List[str]
    return_type: Type
    mode_param: Optional[ModeParam] = None
    has_attributor: bool = False
    decl: Optional[ast.MethodDecl] = None


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
    has_attributor: bool = False
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


class ClassTable:
    """All classes of a program, with inheritance-aware lookups.

    Lookup results are memoized: the table only ever grows (via
    :meth:`add`, which drops every cache), classes are immutable once
    registered, and the substituted types/mappings handed out are treated
    as read-only by all callers, so a cached answer can be shared freely.
    """

    def __init__(self) -> None:
        self._classes: Dict[str, ClassInfo] = {}
        object_info = ClassInfo(name="Object", superclass=None,
                                params=[ModeParam(var="$X_Object")])
        self._classes["Object"] = object_info
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._chain_cache: Dict[ObjectType, Tuple[ObjectType, ...]] = {}
        self._method_cache: Dict[Tuple[ObjectType, str],
                                 Tuple["MethodInfo", Dict[str, ModeAtom]]] = {}
        self._field_cache: Dict[Tuple[ObjectType, str],
                                Tuple["FieldInfo", "Type"]] = {}
        self._fields_list_cache: Dict[str, Tuple["FieldInfo", ...]] = {}
        self._subclass_cache: Dict[Tuple[str, str], bool] = {}
        self._inst_cache: Dict[Tuple[str, Tuple[ModeAtom, ...]],
                               Dict[str, ModeAtom]] = {}

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

    def check_acyclic(self) -> None:
        for name in self._classes:
            seen = {name}
            current = self._classes[name].superclass
            while current is not None:
                if current in seen:
                    raise EntTypeError(
                        f"inheritance cycle involving class {name!r}")
                seen.add(current)
                current = self.get(current).superclass

    def supertype_chain(self, typ: ObjectType) -> Tuple[ObjectType, ...]:
        """``typ`` and all its supertypes with mode args substituted."""
        cached = self._chain_cache.get(typ)
        if cached is not None:
            return cached
        chain = [typ]
        current = typ
        while True:
            info = self.get(current.class_name)
            if info.superclass is None:
                result = tuple(chain)
                self._chain_cache[typ] = result
                return result
            mapping = self._param_mapping(info, current.mode_args)
            super_args = tuple(_subst_atom(a, mapping)
                               for a in info.super_args)
            if not super_args:
                # Default: pass our own mode through as the super's mode.
                super_info = self.get(info.superclass)
                passthrough = (current.omode,) if info.params else (TOP,)
                super_args = passthrough + tuple(
                    p.upper for p in super_info.params[1:])
            current = ObjectType(info.superclass, super_args)
            chain.append(current)

    def _param_mapping(self, info: ClassInfo,
                       args: Tuple[ModeAtom, ...]) -> Dict[str, ModeAtom]:
        if len(args) != len(info.params):
            raise EntTypeError(
                f"class {info.name} expects {len(info.params)} mode "
                f"argument(s), got {len(args)}")
        mapping: Dict[str, ModeAtom] = {}
        for param, arg in zip(info.params, args):
            if param.var is not None:
                mapping[param.var] = arg
        return mapping

    def instantiate(self, info: ClassInfo,
                    args: Tuple[ModeAtom, ...]) -> Dict[str, ModeAtom]:
        """Public wrapper for parameter substitution maps.

        The returned mapping is shared with the cache: treat it as
        read-only (copy before mutating, as ``_check_user_call`` does).
        """
        key = (info.name, args)
        cached = self._inst_cache.get(key)
        if cached is None:
            cached = self._param_mapping(info, args)
            self._inst_cache[key] = cached
        return cached

    def is_subclass(self, sub: str, sup: str) -> bool:
        key = (sub, sup)
        cached = self._subclass_cache.get(key)
        if cached is not None:
            return cached
        answer = False
        current: Optional[str] = sub
        while current is not None:
            if current == sup:
                answer = True
                break
            current = self.get(current).superclass
        self._subclass_cache[key] = answer
        return answer

    def lookup_field(self, typ: ObjectType,
                     name: str) -> Tuple[FieldInfo, Type]:
        """The paper's ``fields(T)``: find a field walking up the chain,
        returning its info and its declared type with this instantiation's
        mode arguments substituted in."""
        key = (typ, name)
        cached = self._field_cache.get(key)
        if cached is not None:
            return cached
        for step in self.supertype_chain(typ):
            info = self.get(step.class_name)
            if name in info.fields:
                finfo = info.fields[name]
                mapping = self._param_mapping(info, step.mode_args)
                result = (finfo, finfo.declared.substitute(mapping))
                self._field_cache[key] = result
                return result
        raise EntTypeError(
            f"no field {name!r} in class {typ.class_name}")

    def lookup_method(self, typ: ObjectType,
                      name: str) -> Tuple[MethodInfo, Dict[str, ModeAtom]]:
        """The paper's ``mtype``: find a method walking up the chain.

        Returns the method info together with the substitution mapping the
        *owning* class's mode variables to this instantiation's atoms.
        The mapping is shared with the cache: callers must copy before
        mutating it.
        """
        key = (typ, name)
        cached = self._method_cache.get(key)
        if cached is not None:
            return cached
        for step in self.supertype_chain(typ):
            info = self.get(step.class_name)
            if name in info.methods:
                mapping = self._param_mapping(info, step.mode_args)
                result = (info.methods[name], mapping)
                self._method_cache[key] = result
                return result
        raise EntTypeError(
            f"no method {name!r} in class {typ.class_name}")

    def all_fields(self, class_name: str) -> Tuple[FieldInfo, ...]:
        """Fields of a class including inherited ones (super first)."""
        cached = self._fields_list_cache.get(class_name)
        if cached is not None:
            return cached
        chain: List[ClassInfo] = []
        current: Optional[str] = class_name
        while current is not None:
            info = self.get(current)
            chain.append(info)
            current = info.superclass
        out: List[FieldInfo] = []
        seen = set()
        for info in reversed(chain):
            for finfo in info.fields.values():
                if finfo.name not in seen:
                    out.append(finfo)
                    seen.add(finfo.name)
        result = tuple(out)
        self._fields_list_cache[class_name] = result
        return result
