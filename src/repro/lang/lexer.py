"""A regex-driven lexer for the ENT surface language.

Supports Java-style ``//`` and ``/* */`` comments, decimal integer and
floating literals, double-quoted strings with the usual escapes, and the
operator set listed in :mod:`repro.lang.tokens`.

The scanner is a single master regular expression applied in a tight
loop, one match per token: each match skips the whitespace and comments
in front of a token, then takes the token.  A token is stored as four
list entries (kind, text, offset, value) of a
:class:`~repro.lang.tokens.TokenStream`, with no per-token object; its
line and column come from the file's line table only when a span is
read.  String literals take a slow path so escape validation and the
error spans stay exactly as before.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.core.errors import EntSyntaxError, LineTable, SourceSpan
from repro.lang.tokens import KEYWORDS, TokenKind, TokenStream

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

#: Trivia (whitespace and comments, no groups), then exactly one token
#: alternative.  The number pattern only commits to a fraction/exponent
#: when the characters after ``.``/``e`` make it one (so ``1.foo``
#: lexes as INT DOT IDENT and ``2e`` as INT IDENT).  The last two
#: alternatives, any one character and the end of input, make the
#: token part match wherever the trivia stops, so the engine never
#: backtracks into a comment to find a token inside it (``x // tail``
#: must not end in a token ``l``).
_MASTER = re.compile(
    r"""(?:[ \t\r\n]+
         | //[^\n]*
         | /\*(?:[^*]|\*(?!/))*\*/
        )*
        (?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
         | (?P<word>(?:[^\W\d]|\$)[\w$]*)
         | (?P<op><=|>=|==|!=|&&|\|\||[{}()\[\];,.:@?=+\-*/%<>!])
         | (?P<other>.)
         | \Z
        )
    """,
    re.VERBOSE | re.DOTALL,
)

# Group indices in _MASTER (4 is ``other``); ``lastindex`` is None at
# the end of input.
_NUM, _WORD, _OP = 1, 2, 3


def tokenize(source: str, filename: str = "<ent>") -> TokenStream:
    """Lex ``source`` into a :class:`TokenStream` ending with an EOF
    token; raises :class:`EntSyntaxError` on malformed input."""
    lines = LineTable(source, filename)
    kinds: List[TokenKind] = []
    texts: List[str] = []
    offsets: List[int] = []
    values: List[object] = []
    add_kind = kinds.append
    add_text = texts.append
    add_offset = offsets.append
    add_value = values.append
    match = _MASTER.match
    keyword = KEYWORDS.get
    operators = _OPERATOR_KINDS
    ident = TokenKind.IDENT
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastindex
        if group is None:  # end of input
            break
        start, pos = m.span(group)
        text = m[group]
        if group == _WORD:
            add_kind(TokenKind.UNDERSCORE if text == "_"
                     else keyword(text, ident))
            add_value(None)
        elif group == _OP:
            if text == "/" and source.startswith("*", pos):
                # A '/' directly followed by '*' only survives the
                # trivia pattern when the block comment never closes.
                raise EntSyntaxError("unterminated block comment",
                                     SourceSpan(start, lines))
            add_kind(operators[text])
            add_value(None)
        elif group == _NUM:
            if "." in text or "e" in text or "E" in text:
                add_kind(TokenKind.FLOAT)
                add_value(float(text))
            else:
                try:
                    value = int(text)
                except ValueError:  # past Python's digit limit
                    raise EntSyntaxError(
                        f"integer literal too large ({len(text)} digits)",
                        SourceSpan(start, lines)) from None
                add_kind(TokenKind.INT)
                add_value(value)
        elif text == '"':
            text, value, pos = _lex_string(source, start, lines)
            add_kind(TokenKind.STRING)
            add_value(value)
        else:
            raise EntSyntaxError(f"unexpected character {text!r}",
                                 SourceSpan(start, lines))
        add_text(text)
        add_offset(start)
    add_kind(TokenKind.EOF)
    add_text("")
    add_offset(len(source))
    add_value(None)
    return TokenStream(kinds, texts, offsets, values, lines)


def _lex_string(source: str, start: int,
                lines: LineTable) -> Tuple[str, str, int]:
    """Scan the string literal whose opening quote is at ``start``:
    its token text, its decoded value and the offset just past it."""
    size = len(source)
    pos = start + 1  # opening quote
    chars: List[str] = []
    while True:
        if pos >= size or source[pos] == "\n":
            raise EntSyntaxError("unterminated string literal",
                                 SourceSpan(start, lines))
        ch = source[pos]
        if ch == '"':
            pos += 1
            break
        if ch == "\\":
            escape = source[pos + 1] if pos + 1 < size else ""
            if escape not in _ESCAPES:
                raise EntSyntaxError(
                    f"invalid escape sequence \\{escape}",
                    SourceSpan(pos, lines))
            chars.append(_ESCAPES[escape])
            pos += 2
        else:
            chars.append(ch)
            pos += 1
    value = "".join(chars)
    return f'"{value}"', value, pos
