"""Error hierarchy for the ENT reproduction.

The paper distinguishes compile-time errors (static waterfall violations,
mode-case coverage problems, ill-formed lattices) from run-time errors
(``EnergyException`` for bad checks at snapshot time, ``BadCastError`` for
failed casts).  All exceptions raised by this package derive from
:class:`EntError` so callers can catch everything with one clause.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List, Optional

_NEWLINE = re.compile("\n")


class EntError(Exception):
    """Base class for every error raised by the ENT reproduction."""


class LineTable:
    """One source file's name and the offset at which each of its lines
    starts (only ``\\n`` ends a line): what turns a :class:`SourceSpan`'s
    offset into a line and a column.  The lexer builds one per file."""

    __slots__ = ("filename", "starts")

    def __init__(self, source: str, filename: str) -> None:
        self.filename = filename
        self.starts: List[int] = [0] + [
            match.end() for match in _NEWLINE.finditer(source)]


class SourceSpan:
    """A point in one source file, for error reporting: an offset into
    the file's :class:`LineTable`.

    The lexer and the parser make spans only for AST nodes and errors,
    never one per token, and ``line`` and ``column`` (1-based) are
    computed only when read, by a bisection over the line starts.  An
    AST node keeps its one span object: the profiler and the JIT key
    on ``id(span)``.  ``end_line`` and ``end_column`` are always
    ``None``; ``repro analyze --json`` reports them as ``null``.
    """

    __slots__ = ("offset", "lines")

    end_line: Optional[int] = None
    end_column: Optional[int] = None

    def __init__(self, offset: int, lines: LineTable) -> None:
        self.offset = offset
        self.lines = lines

    @property
    def line(self) -> int:
        return bisect_right(self.lines.starts, self.offset)

    @property
    def column(self) -> int:
        starts = self.lines.starts
        return self.offset - starts[bisect_right(starts, self.offset) - 1] + 1

    @property
    def filename(self) -> str:
        return self.lines.filename

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceSpan):
            return NotImplemented
        return (self.line == other.line
                and self.column == other.column
                and self.filename == other.filename)

    def __repr__(self) -> str:
        return (f"SourceSpan(line={self.line!r}, column={self.column!r}, "
                f"end_line=None, end_column=None, "
                f"filename={self.filename!r})")

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class EntSyntaxError(EntError):
    """Raised by the lexer or parser on malformed ENT source."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None) -> None:
        self.span = span
        prefix = f"{span}: " if span is not None else ""
        super().__init__(f"{prefix}{message}")


class ModeLatticeError(EntError):
    """Raised when the ``modes { ... }`` declaration does not form a lattice.

    Program typing in the paper (section 4.1) requires the declared mode
    order to form a lattice; cycles or contradictory declarations are
    rejected at compile time.
    """


class UnknownModeError(ModeLatticeError):
    """Raised when a mode name is referenced but never declared."""

    def __init__(self, name: str) -> None:
        self.mode_name = name
        super().__init__(f"unknown mode: {name!r}")


class EntTypeError(EntError):
    """A compile-time type error (e.g. a static waterfall violation)."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None) -> None:
        self.span = span
        prefix = f"{span}: " if span is not None else ""
        super().__init__(f"{prefix}{message}")


class WaterfallError(EntTypeError):
    """Static waterfall invariant violation: receiver mode > sender mode."""


class EntRuntimeError(EntError):
    """Base class for errors raised during ENT program execution."""


class EnergyException(EntRuntimeError):
    """The paper's ``EnergyException``: a *bad check* at snapshot time.

    Raised when an attributor returns a mode outside the bounds of the
    enclosing ``snapshot e [lo, hi]`` expression, or when the dynamic
    waterfall invariant would be violated.  Programs are expected to catch
    this and adapt (scale down quality of service, retry, etc.).
    """

    def __init__(self, message: str, mode: object = None,
                 lower: object = None, upper: object = None) -> None:
        self.mode = mode
        self.lower = lower
        self.upper = upper
        super().__init__(message)


class BadCastError(EntRuntimeError):
    """The paper's *bad cast*: ``(T)o`` where o's type is not a subtype of T."""


class StuckError(EntRuntimeError):
    """The interpreter reached a configuration with no applicable rule.

    A well-typed program never raises this (type soundness, Theorem 1); it
    exists so soundness violations in the implementation surface loudly
    instead of as arbitrary Python errors.
    """


class FuelExhausted(EntRuntimeError):
    """Evaluation exceeded its step budget (used to bound divergence)."""
