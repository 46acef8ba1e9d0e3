"""A regex-driven lexer for the ENT surface language.

Supports Java-style ``//`` and ``/* */`` comments, decimal integer and
floating literals, double-quoted strings with the usual escapes, and the
operator set listed in :mod:`repro.lang.tokens`.

The scanner is a single master regular expression applied in a tight
loop — one match per token or trivia run — rather than a per-character
state machine.  Line/column bookkeeping happens only when a matched chunk
actually contains a newline, which makes lexing the cheapest stage of the
pipeline instead of the one that dominated typechecking wall-clock.
String literals take a slow path so escape validation and the error spans
stay exactly as before.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Tuple

from repro.core.errors import EntSyntaxError, SourceSpan
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    '"': '"',
    "\\": "\\",
    "'": "'",
    "0": "\0",
}

#: Operator spellings mapped to kinds; multi-character operators appear
#: before their prefixes in the master pattern below.
_OPERATOR_KINDS = {
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    ":": TokenKind.COLON,
    "@": TokenKind.AT,
    "?": TokenKind.QUESTION,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
}

#: One alternation per lexical category.  Trivia (whitespace/comments)
#: uses unnamed groups so ``lastgroup`` is ``None`` for it.  The number
#: pattern only commits to a fraction/exponent when the characters after
#: ``.``/``e`` make it one, mirroring the old hand-rolled scanner (so
#: ``1.foo`` lexes as INT DOT IDENT and ``2e`` as INT IDENT).
_MASTER = re.compile(
    r"""[ \t\r\n]+
      | //[^\n]*
      | /\*(?:[^*]|\*(?!/))*\*/
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<word>(?:[^\W\d]|\$)[\w$]*)
      | (?P<op><=|>=|==|!=|&&|\|\||[{}()\[\];,.:@?=+\-*/%<>!])
    """,
    re.VERBOSE,
)


class Lexer:
    """Tokenizes ENT source text."""

    def __init__(self, source: str, filename: str = "<ent>") -> None:
        self._source = source
        self._filename = filename

    # ------------------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Produce the full token stream, ending with an EOF token."""
        source = self._source
        filename = self._filename
        tokens: List[Token] = []
        append = tokens.append
        match = _MASTER.match
        keyword = KEYWORDS.get
        operators = _OPERATOR_KINDS
        size = len(source)
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of `line`
        while pos < size:
            m = match(source, pos)
            if m is None:
                span = SourceSpan(line, pos - line_start + 1,
                                  filename=filename)
                ch = source[pos]
                if ch == '"':
                    token, pos = self._lex_string(pos, line, line_start,
                                                  span)
                    append(token)
                    continue
                raise EntSyntaxError(f"unexpected character {ch!r}", span)
            start = pos
            pos = m.end()
            # Group indices: 1 = num, 2 = word, 3 = op; None = trivia
            # (the trivia alternatives carry no capturing groups).
            group = m.lastindex
            if group is None:
                # Whitespace or a comment; the only chunks that may span
                # lines, so this is the only newline bookkeeping needed.
                # Offset-based rfind/count avoid slicing the trivia run.
                newline = source.rfind("\n", start, pos)
                if newline >= 0:
                    line += source.count("\n", start, pos)
                    line_start = newline + 1
                continue
            text = source[start:pos]
            span = SourceSpan(line, start - line_start + 1,
                              filename=filename)
            if group == 2:  # word
                if text == "_":
                    append(Token(TokenKind.UNDERSCORE, text, span))
                else:
                    append(Token(keyword(text, TokenKind.IDENT), text,
                                 span))
            elif group == 3:  # operator
                if text == "/" and source.startswith("*", pos):
                    # A '/' directly followed by '*' only survives the
                    # master pattern when the block comment never closes.
                    raise EntSyntaxError("unterminated block comment",
                                         span)
                append(Token(operators[text], text, span))
            else:  # number
                if "." in text or "e" in text or "E" in text:
                    append(Token(TokenKind.FLOAT, text, span, float(text)))
                else:
                    try:
                        value = int(text)
                    except ValueError:  # past Python's digit limit
                        raise EntSyntaxError(
                            f"integer literal too large ({len(text)} "
                            f"digits)", span) from None
                    append(Token(TokenKind.INT, text, span, value))
        append(Token(TokenKind.EOF, "",
                     SourceSpan(line, pos - line_start + 1,
                                filename=filename)))
        return tokens

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokenize())

    # ------------------------------------------------------------------

    def _lex_string(self, pos: int, line: int, line_start: int,
                    span: SourceSpan) -> Tuple[Token, int]:
        """Scan a string literal starting at the opening quote."""
        source = self._source
        size = len(source)
        pos += 1  # opening quote
        chars: List[str] = []
        while True:
            if pos >= size or source[pos] == "\n":
                raise EntSyntaxError("unterminated string literal", span)
            ch = source[pos]
            if ch == '"':
                pos += 1
                break
            if ch == "\\":
                escape = source[pos + 1] if pos + 1 < size else ""
                if escape not in _ESCAPES:
                    raise EntSyntaxError(
                        f"invalid escape sequence \\{escape}",
                        SourceSpan(line, pos - line_start + 1,
                                   filename=self._filename))
                chars.append(_ESCAPES[escape])
                pos += 2
            else:
                chars.append(ch)
                pos += 1
        value = "".join(chars)
        return Token(TokenKind.STRING, f'"{value}"', span, value), pos


def tokenize(source: str, filename: str = "<ent>") -> List[Token]:
    """Convenience wrapper: tokenize ``source`` into a list of tokens."""
    return Lexer(source, filename).tokenize()
