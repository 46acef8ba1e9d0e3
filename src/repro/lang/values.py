"""Run-time values for the ENT interpreter.

Primitive ENT values map directly onto Python: ``int``, ``float``,
``bool``, ``str`` and ``None`` (null).  Mode values are
:class:`~repro.core.modes.Mode` instances, lists are plain Python lists.
Two value kinds are ENT-specific:

* :class:`ObjectV` — an object with the run-time metadata the paper's
  section 5 describes: a mode tag for dynamic objects, a "snapshotted"
  bit driving the lazy-copy optimization, and — for generic objects —
  its mode arguments and the mode bindings they give each class of its
  ancestry.  It is its own tag for :func:`repro.core.checks.snapshot`.
* :class:`MCaseV` — a mode-case value ``mcase⟨T⟩{m : v}``, eliminated by
  :func:`repro.core.checks.eliminate`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.core.checks import NO_DEFAULT
from repro.core.errors import EntRuntimeError, StuckError
from repro.core.modes import Mode
from repro.lang.types import Bindings, ClassInfo, ClassTable

__all__ = ["ObjectV", "MCaseV"]

_object_ids = itertools.count(1)


class ObjectV:
    """An ENT object value (the paper's ``obj(α, c⟨µ, ι⟩, v)``).

    ``args`` is the instantiation: one :class:`Mode` per mode parameter
    of the class, or ``None`` for the dynamic mode ``?``.  The object's
    own mode (``omode``) is ``args[0]``, ``None`` exactly when the object
    is an un-snapshotted dynamic object.  ``bindings`` is the class
    table's entry for that instantiation
    (:meth:`~repro.lang.types.ClassTable.bindings`): each class of the
    ancestry's own mode variables, which a body reads under its
    declaring class.  It is shared, so a re-tag replaces it.
    """

    __slots__ = ("oid", "class_info", "args", "bindings", "fields",
                 "is_snapshot", "provenance")

    def __init__(self, class_info: ClassInfo,
                 args: Tuple[Optional[Mode], ...], bindings: Bindings,
                 fields: Dict[str, object],
                 is_snapshot: bool = False) -> None:
        self.oid = next(_object_ids)
        self.class_info = class_info
        self.args = args
        self.bindings = bindings
        self.fields = fields
        #: True once this storage has been given a concrete mode by a
        #: snapshot (including an in-place lazy tag); the next snapshot
        #: of a lazily tagged object must physically copy.
        self.is_snapshot = is_snapshot
        #: Blame provenance: ``(kind, span)`` of the snapshot or
        #: concrete-mode construction that fixed this object's mode
        #: tag, or None.  Transient-mode check failures name it, so a
        #: shallow failure names the originating site.
        self.provenance: Optional[tuple] = None

    @property
    def effective_mode(self) -> Optional[Mode]:
        """The object's concrete mode, or None for dynamic ``?``."""
        return self.args[0]

    #: ``mode``, as the kernel reads a tag (``ObjectTag.mode``).
    mode = effective_mode

    def retag(self, mode: Mode, table: ClassTable) -> None:
        """Give the object the mode ``mode``: its first argument, and
        with it every ancestor variable that argument reaches."""
        if self.class_info.params[0].concrete is not None:
            # Reachable through a type-erased List element.
            raise StuckError(f"cannot re-mode {self!r}: class "
                             f"{self.class_info.name} has a fixed mode")
        self.args = (mode,) + self.args[1:]
        self.bindings = table.bindings(self.class_info.name, self.args)

    def shallow_copy(self, mode: Mode, table: ClassTable) -> "ObjectV":
        """The paper's snapshot copy semantics: a shallow copy whose mode
        tag is ``mode``.  Field *values* are shared; the field map is new,
        enforcing monotonic type change without aliasing equivocation."""
        copy = ObjectV(self.class_info, self.args, self.bindings,
                       dict(self.fields), is_snapshot=True)
        copy.retag(mode, table)
        return copy

    def get_field(self, name: str) -> object:
        try:
            return self.fields[name]
        except KeyError:
            raise EntRuntimeError(
                f"object of class {self.class_info.name} has no field "
                f"{name!r}") from None

    def set_field(self, name: str, value: object) -> None:
        if name not in self.fields:
            raise EntRuntimeError(
                f"object of class {self.class_info.name} has no field "
                f"{name!r}")
        self.fields[name] = value

    def __repr__(self) -> str:
        mode = self.effective_mode
        tag = mode.name if mode is not None else "?"
        return f"<{self.class_info.name}@{tag} #{self.oid}>"


class MCaseV:
    """A mode-case value: a tagged union over modes.

    ``branches`` maps each declared mode to its (already evaluated)
    value; ``default`` holds the value of an optional ``default:``
    branch, or :data:`~repro.core.checks.NO_DEFAULT`.
    """

    __slots__ = ("branches", "default")

    def __init__(self, branches: Dict[Mode, object],
                 default: object = NO_DEFAULT) -> None:
        self.branches = branches
        self.default = default

    def __repr__(self) -> str:
        parts = [f"{m.name}: {v!r}" for m, v in self.branches.items()]
        if self.default is not NO_DEFAULT:
            parts.append(f"default: {self.default!r}")
        return "mcase{" + "; ".join(parts) + "}"
