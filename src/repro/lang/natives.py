"""Native library surface available to ENT programs.

Three static classes are visible by name inside any ENT method body:

* ``Ext`` — the paper's external-context utility: battery level and CPU
  temperature queries, answered by the attached platform simulator.
* ``Sys`` — effectful primitives: printing, sleeping, and the workload
  hooks (``work``/``io``/``net``) that drive the energy model, plus the
  simulation clock and a seeded RNG.
* ``Math`` — the usual numeric helpers.

Two value kinds carry methods: the native ``List`` (type-erased, Java
1.4-collections style — elements type as ``Any`` and are cast-checked at
run time) and ``String``.

The ``*_return`` functions give the typechecker signatures; the
``call_*`` functions implement the run-time behaviour against an
interpreter instance (for the platform, output buffer, and RNG).
"""

from __future__ import annotations

import math
from typing import List as PyList, Optional, Sequence

from repro.core.errors import EntRuntimeError, StuckError
from repro.lang import types as ty
from repro.lang.types import Type

__all__ = [
    "NATIVE_STATIC_CLASSES",
    "NativeRef",
    "native_static_return",
    "native_value_method_return",
    "call_native_static",
    "call_list_method",
    "call_string_method",
    "call_non_object",
]

NATIVE_STATIC_CLASSES = frozenset({"Ext", "Sys", "Math"})


class NativeRef:
    """A reference to a native static class (``Ext``, ``Sys``, ``Math``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<native {self.name}>"


_NUMBER = (ty.INT, ty.DOUBLE)


def _numeric(args: Sequence[Type]) -> bool:
    return all(a in _NUMBER or a == ty.ANY for a in args)


# ---------------------------------------------------------------------------
# Static signatures

#: (class, method) -> (arity, arg kind, return type).  Kind "num" requires
#: numeric arguments; "any" accepts anything.
_STATIC_SIGNATURES = {
    ("Ext", "battery"): (0, "any", ty.DOUBLE),
    ("Ext", "temperature"): (0, "any", ty.DOUBLE),
    ("Sys", "print"): (1, "any", ty.VOID),
    ("Sys", "sleep"): (1, "num", ty.VOID),
    ("Sys", "work"): (1, "num", ty.VOID),
    ("Sys", "io"): (1, "num", ty.VOID),
    ("Sys", "net"): (1, "num", ty.VOID),
    ("Sys", "time"): (0, "any", ty.DOUBLE),
    ("Sys", "rand"): (0, "any", ty.DOUBLE),
    ("Sys", "randInt"): (1, "num", ty.INT),
    ("Sys", "str"): (1, "any", ty.STRING),
    ("Sys", "parseInt"): (1, "any", ty.INT),
    ("Math", "min"): (2, "num", ty.DOUBLE),
    ("Math", "max"): (2, "num", ty.DOUBLE),
    ("Math", "abs"): (1, "num", ty.DOUBLE),
    ("Math", "floor"): (1, "num", ty.INT),
    ("Math", "ceil"): (1, "num", ty.INT),
    ("Math", "sqrt"): (1, "num", ty.DOUBLE),
    ("Math", "pow"): (2, "num", ty.DOUBLE),
    ("Math", "log"): (1, "num", ty.DOUBLE),
}

#: Math functions that preserve int-ness when every argument is int.
_INT_PRESERVING = {("Math", "min"), ("Math", "max"), ("Math", "abs")}


def native_static_return(class_name: str, method: str,
                         arg_types: Sequence[Type]) -> Optional[Type]:
    """Signature lookup for ``Class.method(args)``; None if unknown."""
    sig = _STATIC_SIGNATURES.get((class_name, method))
    if sig is None:
        return None
    arity, kind, result = sig
    if len(arg_types) != arity:
        return None
    if kind == "num" and not _numeric(arg_types):
        return None
    if (class_name, method) in _INT_PRESERVING and all(
            a == ty.INT for a in arg_types):
        return ty.INT
    return result


_LIST_SIGNATURES = {
    "add": (1, ty.VOID),
    "addAll": (1, ty.VOID),
    "get": (1, ty.ANY),
    "set": (2, ty.VOID),
    "size": (0, ty.INT),
    "remove": (1, ty.ANY),
    "contains": (1, ty.BOOLEAN),
    "indexOf": (1, ty.INT),
    "isEmpty": (0, ty.BOOLEAN),
    "clear": (0, ty.VOID),
}

_STRING_SIGNATURES = {
    "length": (0, ty.INT),
    "substring": (2, ty.STRING),
    "charAt": (1, ty.STRING),
    "contains": (1, ty.BOOLEAN),
    "startsWith": (1, ty.BOOLEAN),
    "endsWith": (1, ty.BOOLEAN),
    "indexOf": (1, ty.INT),
    "split": (1, ty.LIST),
    "toLowerCase": (0, ty.STRING),
    "toUpperCase": (0, ty.STRING),
    "equals": (1, ty.BOOLEAN),
    "hashCode": (0, ty.INT),
}


def native_value_method_return(kind: str, method: str,
                               arg_types: Sequence[Type]) -> Optional[Type]:
    """Signature lookup for methods on native values ("List"/"String")."""
    table = _LIST_SIGNATURES if kind == "List" else _STRING_SIGNATURES
    sig = table.get(method)
    if sig is None:
        return None
    arity, result = sig
    if len(arg_types) != arity:
        return None
    return result


# ---------------------------------------------------------------------------
# Runtime behaviour


def _trace_read(interp, platform, signal: str, value: float) -> None:
    """Record an ``Ext`` read for platforms that don't trace their own.

    Platform simulators with a tracer attached emit
    ``PlatformReadEvent`` themselves; this covers bare stubs like the
    interpreter's ``NullPlatform``.
    """
    tracer = interp.tracer
    if not tracer.enabled:
        return
    platform_tracer = getattr(platform, "tracer", None)
    if platform_tracer is not None and platform_tracer.enabled:
        return
    from repro.obs.events import PlatformReadEvent
    tracer.emit(PlatformReadEvent(ts=tracer.now(), signal=signal,
                                  value=value))


def _as_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EntRuntimeError(f"{what} requires a number, got {value!r}")
    return value


def _as_int(value: object, what: str) -> int:
    number = _as_number(value, what)
    return int(number)


def call_native_static(interp, class_name: str, method: str,
                       args: PyList[object]) -> object:
    """Execute a native static call against an interpreter instance."""
    key = (class_name, method)
    platform = interp.platform
    if key == ("Ext", "battery"):
        value = float(platform.battery_fraction())
        _trace_read(interp, platform, "battery", value)
        return value
    if key == ("Ext", "temperature"):
        value = float(platform.cpu_temperature())
        _trace_read(interp, platform, "temperature", value)
        return value
    if key == ("Sys", "print"):
        interp.output.append(interp.render(args[0]))
        return None
    if key == ("Sys", "sleep"):
        platform.sleep(_as_number(args[0], "Sys.sleep") / 1000.0)
        return None
    if key == ("Sys", "work"):
        platform.cpu_work(_as_number(args[0], "Sys.work"))
        return None
    if key == ("Sys", "io"):
        platform.io_bytes(_as_number(args[0], "Sys.io"))
        return None
    if key == ("Sys", "net"):
        platform.net_bytes(_as_number(args[0], "Sys.net"))
        return None
    if key == ("Sys", "time"):
        return float(platform.now())
    if key == ("Sys", "rand"):
        return interp.rng.random()
    if key == ("Sys", "randInt"):
        bound = _as_int(args[0], "Sys.randInt")
        if bound <= 0:
            raise EntRuntimeError("Sys.randInt requires a positive bound")
        return interp.rng.randrange(bound)
    if key == ("Sys", "str"):
        return interp.render(args[0])
    if key == ("Sys", "parseInt"):
        if not isinstance(args[0], str):
            raise EntRuntimeError("Sys.parseInt requires a String")
        try:
            return int(args[0].strip())
        except ValueError:
            raise EntRuntimeError(
                f"Sys.parseInt: not an integer: {args[0]!r}") from None
    if class_name == "Math":
        return _call_math(method, args)
    raise EntRuntimeError(
        f"unknown native method {class_name}.{method}")  # pragma: no cover


def _call_math(method: str, args: PyList[object]) -> object:
    nums = [_as_number(a, f"Math.{method}") for a in args]
    # Mirror the static signatures: int-preserving only when every
    # argument is an int (Java's overload resolution).
    all_int = all(isinstance(n, int) for n in nums)

    def numeric(value):
        return value if all_int else float(value)

    if method == "min":
        return numeric(min(nums))
    if method == "max":
        return numeric(max(nums))
    if method == "abs":
        return numeric(abs(nums[0]))
    if method == "floor":
        return math.floor(nums[0])
    if method == "ceil":
        return math.ceil(nums[0])
    if method == "sqrt":
        if nums[0] < 0:
            raise EntRuntimeError("Math.sqrt of a negative number")
        return math.sqrt(nums[0])
    if method == "pow":
        return float(nums[0] ** nums[1])
    if method == "log":
        if nums[0] <= 0:
            raise EntRuntimeError("Math.log of a non-positive number")
        return math.log(nums[0])
    raise EntRuntimeError(f"unknown Math method {method}")  # pragma: no cover


def call_list_method(interp, lst: PyList[object], method: str,
                     args: PyList[object]) -> object:
    if method == "add":
        lst.append(args[0])
        return None
    if method == "addAll":
        other = args[0]
        if not isinstance(other, list):
            raise EntRuntimeError("List.addAll requires a List")
        lst.extend(other)
        return None
    if method == "get":
        index = _as_int(args[0], "List.get")
        if not 0 <= index < len(lst):
            raise EntRuntimeError(
                f"List.get index {index} out of range (size {len(lst)})")
        return lst[index]
    if method == "set":
        index = _as_int(args[0], "List.set")
        if not 0 <= index < len(lst):
            raise EntRuntimeError(
                f"List.set index {index} out of range (size {len(lst)})")
        lst[index] = args[1]
        return None
    if method == "size":
        return len(lst)
    if method == "remove":
        index = _as_int(args[0], "List.remove")
        if not 0 <= index < len(lst):
            raise EntRuntimeError(
                f"List.remove index {index} out of range (size {len(lst)})")
        return lst.pop(index)
    if method == "contains":
        return any(interp.values_equal(item, args[0]) for item in lst)
    if method == "indexOf":
        for i, item in enumerate(lst):
            if interp.values_equal(item, args[0]):
                return i
        return -1
    if method == "isEmpty":
        return not lst
    if method == "clear":
        lst.clear()
        return None
    raise EntRuntimeError(f"unknown List method {method}")  # pragma: no cover


def call_string_method(interp, string: str, method: str,
                       args: PyList[object]) -> object:
    if method == "length":
        return len(string)
    if method == "substring":
        start = _as_int(args[0], "String.substring")
        end = _as_int(args[1], "String.substring")
        if not 0 <= start <= end <= len(string):
            raise EntRuntimeError(
                f"String.substring({start}, {end}) out of range for "
                f"length {len(string)}")
        return string[start:end]
    if method == "charAt":
        index = _as_int(args[0], "String.charAt")
        if not 0 <= index < len(string):
            raise EntRuntimeError(
                f"String.charAt index {index} out of range")
        return string[index]
    if method == "contains":
        return str(args[0]) in string
    if method == "startsWith":
        return string.startswith(str(args[0]))
    if method == "endsWith":
        return string.endswith(str(args[0]))
    if method == "indexOf":
        return string.find(str(args[0]))
    if method == "split":
        separator = str(args[0])
        if not separator:
            raise EntRuntimeError("String.split separator cannot be empty")
        return list(string.split(separator))
    if method == "toLowerCase":
        return string.lower()
    if method == "toUpperCase":
        return string.upper()
    if method == "equals":
        return isinstance(args[0], str) and string == args[0]
    if method == "hashCode":
        # Java's String.hashCode, for deterministic workloads.
        h = 0
        for ch in string:
            h = (31 * h + ord(ch)) & 0xFFFFFFFF
        if h >= 0x80000000:
            h -= 0x100000000
        return h
    raise EntRuntimeError(
        f"unknown String method {method}")  # pragma: no cover


def call_non_object(interp, receiver: object, method: str,
                    args: PyList[object]) -> object:
    """A message to a receiver that is not an ENT object (a native
    class, a string or a list; anything else is stuck), for every
    engine."""
    if isinstance(receiver, NativeRef):
        return call_native_static(interp, receiver.name, method, args)
    if isinstance(receiver, str):
        return call_string_method(interp, receiver, method, args)
    if isinstance(receiver, list):
        return call_list_method(interp, receiver, method, args)
    if receiver is None:
        raise StuckError(f"null receiver for method {method!r}")
    raise StuckError(f"cannot invoke {method!r} on {receiver!r}")
