"""Unit tests for the ENT lexer."""

import pickle

import pytest

from repro.core.errors import EntSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasics:
    def test_empty(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("foo class snapshot") == [
            TokenKind.IDENT, TokenKind.KW_CLASS, TokenKind.KW_SNAPSHOT]

    def test_keyword_prefix_is_ident(self):
        assert kinds("classy") == [TokenKind.IDENT]

    def test_underscore(self):
        assert kinds("_") == [TokenKind.UNDERSCORE]
        assert kinds("_x") == [TokenKind.IDENT]

    def test_integers(self):
        tokens = tokenize("42 0 123456")
        assert [t.value for t in tokens[:-1]] == [42, 0, 123456]

    def test_floats(self):
        tokens = tokenize("0.75 1e3 2.5E-2")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.FLOAT] * 3
        assert tokens[0].value == pytest.approx(0.75)
        assert tokens[1].value == pytest.approx(1000.0)
        assert tokens[2].value == pytest.approx(0.025)

    def test_int_then_dot_method(self):
        # `resources.length` style: no float confusion.
        assert kinds("x.size") == [TokenKind.IDENT, TokenKind.DOT,
                                   TokenKind.IDENT]

    def test_strings(self):
        token = tokenize('"hello world"')[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello world"

    def test_string_escapes(self):
        token = tokenize(r'"a\nb\t\"c\\"')[0]
        assert token.value == 'a\nb\t"c\\'

    def test_unterminated_string(self):
        with pytest.raises(EntSyntaxError):
            tokenize('"oops')

    def test_invalid_escape(self):
        with pytest.raises(EntSyntaxError):
            tokenize(r'"\q"')

    def test_operators(self):
        assert kinds("<= >= == != && || < > = ! @ ?") == [
            TokenKind.LE, TokenKind.GE, TokenKind.EQ, TokenKind.NE,
            TokenKind.AND, TokenKind.OR, TokenKind.LT, TokenKind.GT,
            TokenKind.ASSIGN, TokenKind.NOT, TokenKind.AT,
            TokenKind.QUESTION]

    def test_unexpected_character(self):
        with pytest.raises(EntSyntaxError):
            tokenize("#")


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\n b") == [TokenKind.IDENT,
                                             TokenKind.IDENT]

    def test_block_comment(self):
        assert texts("a /* stuff \n more */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(EntSyntaxError):
            tokenize("/* never ends")

    # One regex match skips the comments in front of a token and takes
    # the token; it must never give back part of a comment to find one.
    @pytest.mark.parametrize("source, expected", [
        ("x // tail", ["x"]),
        ("// only", []),
        ("x /* c */", ["x"]),
        ('/* c */"s"// c', ['"s"']),
        ("a/**/b", ["a", "b"]),
    ])
    def test_comment_is_never_split(self, source, expected):
        assert texts(source) == expected


class TestSpans:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].span.line == 1 and tokens[0].span.column == 1
        assert tokens[1].span.line == 2 and tokens[1].span.column == 3

    def test_filename(self):
        token = tokenize("x", filename="prog.ent")[0]
        assert "prog.ent" in str(token.span)

    def test_span_is_computed_from_the_offset(self):
        tokens = tokenize("a\r\n\tbb /* x\n */ c", filename="f.ent")
        assert [t.offset for t in tokens] == [0, 4, 16, 17]
        assert [(t.span.line, t.span.column) for t in tokens] == [
            (1, 1), (2, 2), (3, 5), (3, 6)]
        assert tokens[1].span.end_line is None
        assert tokens[1].span.end_column is None

    def test_error_span(self):
        with pytest.raises(EntSyntaxError) as info:
            tokenize('x\n  "a\\q"', filename="f.ent")
        assert str(info.value) == "f.ent:2:5: invalid escape sequence \\q"

    def test_spans_and_errors_pickle(self):
        span = tokenize("a\n  b", filename="f.ent")[1].span
        copy = pickle.loads(pickle.dumps(span))
        assert copy == span and repr(copy) == repr(span)
        assert repr(span) == ("SourceSpan(line=2, column=3, end_line=None, "
                              "end_column=None, filename='f.ent')")
        with pytest.raises(EntSyntaxError) as info:
            tokenize("a\n #")
        error = pickle.loads(pickle.dumps(info.value))
        assert str(error) == str(info.value) == \
            "<ent>:2:2: unexpected character '#'"
        assert error.span == info.value.span


class TestTokenStream:
    def test_parallel_lists(self):
        tokens = tokenize('x = 4 + "s";')
        assert tokens.kinds == [TokenKind.IDENT, TokenKind.ASSIGN,
                                TokenKind.INT, TokenKind.PLUS,
                                TokenKind.STRING, TokenKind.SEMI,
                                TokenKind.EOF]
        assert tokens.texts == ["x", "=", "4", "+", '"s"', ";", ""]
        assert tokens.offsets == [0, 2, 4, 6, 8, 11, 12]
        assert tokens.values == [None, None, 4, None, "s", None, None]

    def test_views(self):
        tokens = tokenize("a b c")
        assert len(tokens) == 4
        assert tokens[-1].kind is TokenKind.EOF
        assert [t.text for t in tokens[1:3]] == ["b", "c"]
        assert list(tokens) == tokens[:]
        assert tokens[2] == Token(TokenKind.IDENT, "c", tokens[2].span)
        assert str(tokens[1]) == "IDENT('b')@<ent>:1:3"
        with pytest.raises(IndexError):
            tokens[4]

    def test_kinds_hash_by_identity(self):
        assert hash(TokenKind.IDENT) == object.__hash__(TokenKind.IDENT)
        assert {TokenKind.IDENT: 1}[TokenKind("IDENT")] == 1
        assert pickle.loads(pickle.dumps(TokenKind.EOF)) is TokenKind.EOF
