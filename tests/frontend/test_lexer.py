"""Lexer unit tests."""

import pytest

from repro.compiler import compile_source
from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)][:-1]  # drop EOF


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only(self):
        assert kinds("  \t\n  \r\n") == [TokenKind.EOF]

    def test_identifier(self):
        tokens = tokenize("abc_123")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "abc_123"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].kind is TokenKind.IDENT

    def test_keywords_are_distinguished_from_identifiers(self):
        assert kinds("int intx")[:2] == [TokenKind.KW_INT, TokenKind.IDENT]

    def test_all_keywords(self):
        src = "int float void if else while for return print"
        expected = [
            TokenKind.KW_INT,
            TokenKind.KW_FLOAT,
            TokenKind.KW_VOID,
            TokenKind.KW_IF,
            TokenKind.KW_ELSE,
            TokenKind.KW_WHILE,
            TokenKind.KW_FOR,
            TokenKind.KW_RETURN,
            TokenKind.KW_PRINT,
        ]
        assert kinds(src)[:-1] == expected


class TestNumbers:
    def test_int_literal_value(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT_LIT
        assert token.value == 42

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_float_literal_value(self):
        token = tokenize("3.25")[0]
        assert token.kind is TokenKind.FLOAT_LIT
        assert token.value == pytest.approx(3.25)

    def test_float_with_exponent(self):
        assert tokenize("1e3")[0].value == pytest.approx(1000.0)
        assert tokenize("2.5e-2")[0].value == pytest.approx(0.025)
        assert tokenize("2E+1")[0].value == pytest.approx(20.0)

    def test_float_starting_with_dot(self):
        token = tokenize(".5")[0]
        assert token.kind is TokenKind.FLOAT_LIT
        assert token.value == pytest.approx(0.5)

    def test_malformed_exponent_raises(self):
        with pytest.raises(LexError):
            tokenize("1e+")

    @pytest.mark.parametrize(
        "source, char, column",
        [
            ("print(2\u00b2);", "\u00b2", 8),
            ("x = \u0663;", "\u0663", 5),
            ("1.\u0665", "\u0665", 3),
        ],
    )
    def test_non_ascii_digit_is_unexpected_character(self, source, char, column):
        # Numbers are ASCII [0-9], as in C.
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert err.value.message == f"unexpected character {char!r}"
        assert err.value.location.column == column

    def test_non_ascii_digit_fails_compile_with_frontend_error(self):
        with pytest.raises(LexError):
            compile_source("void main() { print(2\u00b2); }")

    def test_non_ascii_digit_may_continue_identifier(self):
        assert texts("x\u00b2 + 1") == ["x\u00b2", "+", "1"]

    def test_int_then_dot_digit_is_float(self):
        token = tokenize("12.75")[0]
        assert token.kind is TokenKind.FLOAT_LIT
        assert token.value == pytest.approx(12.75)


class TestOperators:
    def test_single_char_operators(self):
        src = "+ - * / % < > ! = ( ) { } [ ] , ;"
        expected = [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.NOT,
            TokenKind.ASSIGN,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.SEMI,
        ]
        assert kinds(src)[:-1] == expected

    def test_two_char_operators(self):
        src = "== != <= >= && ||"
        expected = [
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.AND,
            TokenKind.OR,
        ]
        assert kinds(src)[:-1] == expected

    def test_two_char_preferred_over_one_char(self):
        # "<=" must not lex as "<" then "=".
        assert kinds("a<=b")[1] is TokenKind.LE

    def test_equality_vs_assignment(self):
        assert kinds("= ==")[:-1] == [TokenKind.ASSIGN, TokenKind.EQ]


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert texts("a // no newline") == ["a"]

    def test_block_comment_skipped(self):
        assert texts("a /* hi\n there */ b") == ["a", "b"]

    def test_nested_slashes_in_block_comment(self):
        assert texts("a /* // still comment */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* oops")


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)

    def test_filename_recorded(self):
        token = tokenize("x", filename="prog.mc")[0]
        assert token.location.filename == "prog.mc"
        assert "prog.mc" in str(token.location)


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as err:
            tokenize("a $ b")
        assert "$" in str(err.value)

    def test_error_carries_location(self):
        with pytest.raises(LexError) as err:
            tokenize("ab\n  @")
        assert err.value.location.line == 2
