"""The lexer against a reference that does not trust it.

Sources are drawn from fragments that stress the scanner: identifiers
(with ``$``, ``_`` and non-ASCII letters), every keyword and operator,
number shapes that must not over-commit (``1.foo``, ``2e``), a
4,400-digit literal, strings with valid, invalid and unterminated
escapes, comments at the end of input, before a string and unterminated,
and ``\\r\\n``, tabs and ``#``.  The only allowed outcomes are a token
stream or an ``EntSyntaxError``.  A stream must account for the whole
source: every token's text is its slice of the source (strings excepted,
whose text is decoded), only whitespace and complete comments lie
between tokens, and every span agrees with a naive line/column count.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import EntSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import KEYWORDS, TokenKind

OPERATORS = ("<=", ">=", "==", "!=", "&&", "||", "{", "}", "(", ")", "[",
             "]", ";", ",", ".", ":", "@", "?", "=", "+", "-", "*", "/",
             "%", "<", ">", "!")

FRAGMENTS = (
    # identifiers
    "x", "foo_bar", "$", "$x", "_", "_x", "x1", "été", "名前",
    # numbers
    "0", "42", "1.foo", "2e", "3.5e+2", "7E-3", "1.5", "9" * 4400,
    # strings: valid, invalid and unterminated escapes, unterminated
    '"ok"', '"a\\nb\\t\\"c\\\\"', '"\\q"', '"\\', '"open', '""',
    # comments
    "// c", "//", "/* c */", "/**/", "/* c", "/*/", "*/",
    # whitespace and stray characters
    " ", "\n", "\r\n", "\t", "#", "'",
) + tuple(KEYWORDS) + OPERATORS

#: What may lie between two tokens: whitespace and complete comments.
#: A line comment runs to the end of its line, so a token may not
#: follow it on the same line.  Matched from the end of one token, it
#: must stop exactly at the next.
TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*(?=\n|\Z)|/\*.*?\*/)*",
                    re.DOTALL)


def naive_position(source, offset):
    """Line and column of ``offset``, counted the slow way."""
    line = 1 + source.count("\n", 0, offset)
    column = offset - (source.rfind("\n", 0, offset) + 1) + 1
    return line, column


def source_end(source, kind, offset, text):
    """Where the token at ``offset`` ends in the source."""
    if kind is not TokenKind.STRING:
        return offset + len(text)
    pos = offset + 1
    while source[pos] != '"':
        pos += 2 if source[pos] == "\\" else 1
    return pos + 1


def check_span(source, span):
    assert 0 <= span.offset <= len(source)
    assert (span.line, span.column) == naive_position(source, span.offset)
    assert span.filename == "prop.ent"
    assert span.end_line is None and span.end_column is None


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join))
@example("x // tail")
@example("// only")
@example("x /* c */")
@example('x /* c */ "s" // end')
@example('// c\n"s"')
@example("/* open")
def test_token_stream_accounts_for_the_source(source):
    try:
        tokens = tokenize(source, "prop.ent")
    except EntSyntaxError as exc:
        check_span(source, exc.span)
        if "unterminated block comment" in str(exc):
            assert source.startswith("/*", exc.span.offset)
            assert "*/" not in source[exc.span.offset + 2:]
        return
    assert len(tokens) == len(tokens.kinds) == len(tokens.texts) \
        == len(tokens.offsets) == len(tokens.values)
    assert tokens.kinds.count(TokenKind.EOF) == 1
    end = 0
    for token in tokens:
        check_span(source, token.span)
        assert TRIVIA.match(source, end).end() == token.offset, \
            (source[end:token.offset], token)
        kind, text = token.kind, token.text
        if kind is TokenKind.EOF:
            assert token.offset == len(source) and text == ""
            break
        end = source_end(source, kind, token.offset, text)
        if kind is not TokenKind.STRING:
            assert source[token.offset:end] == text
        if kind is TokenKind.INT:
            assert token.value == int(text)
        elif kind is TokenKind.FLOAT:
            assert token.value == float(text)
        elif kind is TokenKind.IDENT:
            assert text not in KEYWORDS and text != "_"
        elif text in KEYWORDS:
            assert kind is KEYWORDS[text]
