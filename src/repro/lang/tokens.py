"""Token definitions for the ENT surface language."""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Union

from repro.core.errors import LineTable, SourceSpan


class TokenKind(enum.Enum):
    """A token's kind.  Members hash by identity, as modes do
    (:class:`repro.core.modes.Mode`): the parser's kind-keyed tables
    then probe without a Python-level ``Enum.__hash__`` call."""

    __hash__ = object.__hash__

    # Literals and identifiers
    IDENT = "IDENT"
    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"

    # Keywords
    KW_MODES = "modes"
    KW_CLASS = "class"
    KW_EXTENDS = "extends"
    KW_ATTRIBUTOR = "attributor"
    KW_SNAPSHOT = "snapshot"
    KW_MCASE = "mcase"
    KW_MSELECT = "mselect"
    KW_NEW = "new"
    KW_RETURN = "return"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOREACH = "foreach"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_TRY = "try"
    KW_CATCH = "catch"
    KW_THROW = "throw"
    KW_THIS = "this"
    KW_NULL = "null"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_DEFAULT = "default"
    KW_VOID = "void"
    KW_INT = "int"
    KW_DOUBLE = "double"
    KW_BOOLEAN = "boolean"
    KW_STRING_TYPE = "String"
    KW_MODE_TYPE = "mode"
    KW_INSTANCEOF = "instanceof"

    # Punctuation and operators
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    COLON = ":"
    AT = "@"
    QUESTION = "?"
    UNDERSCORE = "_"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "EOF"


#: Reserved words mapped to their token kinds.
KEYWORDS = {
    "modes": TokenKind.KW_MODES,
    "class": TokenKind.KW_CLASS,
    "extends": TokenKind.KW_EXTENDS,
    "attributor": TokenKind.KW_ATTRIBUTOR,
    "snapshot": TokenKind.KW_SNAPSHOT,
    "mcase": TokenKind.KW_MCASE,
    "mselect": TokenKind.KW_MSELECT,
    "new": TokenKind.KW_NEW,
    "return": TokenKind.KW_RETURN,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "foreach": TokenKind.KW_FOREACH,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "try": TokenKind.KW_TRY,
    "catch": TokenKind.KW_CATCH,
    "throw": TokenKind.KW_THROW,
    "this": TokenKind.KW_THIS,
    "null": TokenKind.KW_NULL,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "default": TokenKind.KW_DEFAULT,
    "void": TokenKind.KW_VOID,
    "int": TokenKind.KW_INT,
    "double": TokenKind.KW_DOUBLE,
    "boolean": TokenKind.KW_BOOLEAN,
    "String": TokenKind.KW_STRING_TYPE,
    "mode": TokenKind.KW_MODE_TYPE,
    "instanceof": TokenKind.KW_INSTANCEOF,
}


class Token:
    """A view of one lexed token, made on demand by :class:`TokenStream`;
    the stream itself stores no ``Token`` objects."""

    __slots__ = ("kind", "text", "span", "value")

    def __init__(self, kind: TokenKind, text: str, span: SourceSpan,
                 value: Optional[object] = None) -> None:
        self.kind = kind
        self.text = text
        self.span = span
        self.value = value  # decoded literal value, if any

    @property
    def offset(self) -> int:
        """Where the token starts in the source."""
        return self.span.offset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind == other.kind and self.text == other.text
                and self.span == other.span and self.value == other.value)

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, text={self.text!r}, "
                f"span={self.span!r}, value={self.value!r})")

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.span}"


class TokenStream:
    """A lexed file, ending with an EOF token, as parallel lists:
    ``kinds[i]``, ``texts[i]``, ``offsets[i]`` (where the token starts
    in the source) and ``values[i]`` (the decoded literal, or None)
    describe token ``i``, and ``lines`` is the file's line table.

    The parser reads the lists by position.  ``len()``, indexing,
    slicing and iteration yield :class:`Token` views, made on demand."""

    __slots__ = ("kinds", "texts", "offsets", "values", "lines")

    def __init__(self, kinds: List[TokenKind], texts: List[str],
                 offsets: List[int], values: List[object],
                 lines: LineTable) -> None:
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self.values = values
        self.lines = lines

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self.kinds))[index]]
        return Token(self.kinds[index], self.texts[index],
                     SourceSpan(self.offsets[index], self.lines),
                     self.values[index])

    def __iter__(self) -> Iterator[Token]:
        for index in range(len(self.kinds)):
            yield self[index]
