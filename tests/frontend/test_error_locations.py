"""Diagnostics carry accurate source locations (a front end that cannot
point at the offending line is not production quality)."""

import pytest

from repro.frontend.errors import LexError, ParseError, SemanticError
from repro.frontend.parser import parse
from repro.frontend.sema import analyze


def parse_fails_at(source, line, fragment=""):
    with pytest.raises(ParseError) as err:
        parse(source, filename="prog.mc")
    assert err.value.location.line == line, str(err.value)
    assert fragment in str(err.value)
    assert "prog.mc" in str(err.value)


def sema_fails_at(source, line):
    with pytest.raises(SemanticError) as err:
        analyze(parse(source, filename="prog.mc"))
    assert err.value.location.line == line, str(err.value)


class TestParseLocations:
    def test_missing_semicolon(self):
        parse_fails_at("void f() {\n    int x;\n    x = 1\n}\n", 4)

    def test_bad_top_level(self):
        parse_fails_at("void f() { }\nbanana\n", 2)

    def test_unclosed_paren(self):
        parse_fails_at("void f() {\n    print((1 + 2);\n}\n", 2)


class TestSemaLocations:
    def test_undeclared_variable_line(self):
        sema_fails_at("void f() {\n    int a;\n    b = 1;\n}\n", 3)

    def test_type_error_line(self):
        sema_fails_at(
            "void f() {\n    int x;\n    float y;\n    y = 1.0;\n    x = y;\n}\n",
            5,
        )

    def test_bad_call_line(self):
        sema_fails_at(
            "int g(int a) { return a; }\nvoid f() {\n    g();\n}\n", 3
        )


class TestLexLocations:
    def test_bad_char_column(self):
        with pytest.raises(LexError) as err:
            parse("void f() {\n  int x@;\n}")
        assert err.value.location.line == 2
        assert err.value.location.column == 8


# Every message the lexer and parser raise, with its exact text and
# file:line:col.
FRONTEND_ERRORS = [
    (LexError, "void f() {\n  int x@;\n}\n",
     "prog.mc:2:8: unexpected character '@'"),
    (LexError, "void f() {\n  float y;\n  y = 1e;\n}\n",
     "prog.mc:3:9: malformed exponent"),
    (LexError, "void f() {\n  float y;\n  y = 2.5e+;\n}\n",
     "prog.mc:3:12: malformed exponent"),
    (LexError, "void f() {\n  int y;\n  if (y) y = 1else y = 2;\n}\n",
     "prog.mc:3:16: malformed exponent"),
    (LexError, "int x;\n  /* never\nclosed\n",
     "prog.mc:2:3: unterminated block comment"),
    (ParseError, "void f() {\n    int x;\n    x = 1\n}\n",
     "prog.mc:4:1: expected ';', found '}'"),
    (ParseError, "int x",
     "prog.mc:1:6: expected ';', found '<eof>'"),
    (ParseError, "void f() { }\nbanana\n",
     "prog.mc:2:1: expected declaration, found 'banana'"),
    (ParseError, "void f() {\n  int x;\n  ;\n}\n",
     "prog.mc:3:3: expected statement, found ';'"),
    (ParseError, "void f() {\n  print(+);\n}\n",
     "prog.mc:2:9: expected expression, found '+'"),
    (ParseError, "int f(void x) {\n  return 0;\n}\n",
     "prog.mc:1:7: expected type, found 'void'"),
    (ParseError, "void x;\n",
     "prog.mc:1:1: expected type, found 'void'"),
    (ParseError, "int a[0];\n",
     "prog.mc:1:7: array extent must be positive"),
    (ParseError, "void f() {\n  float m[2][2][2];\n}\n",
     "prog.mc:2:3: at most two array dimensions supported"),
    (ParseError, "int m[2][2];\nvoid f() {\n  m[0][1][1] = 0;\n}\n",
     "prog.mc:3:3: at most two array dimensions"),
    (ParseError, "int m[2][2];\nvoid f() {\n  print(m[0][1][1]);\n}\n",
     "prog.mc:3:9: at most two array dimensions"),
    (ParseError, "int a[3] = 1;\n",
     "prog.mc:1:1: array initializers are not supported"),
]


@pytest.mark.parametrize(
    "error, source, text", FRONTEND_ERRORS, ids=[text for _, _, text in FRONTEND_ERRORS]
)
def test_frontend_error_text(error, source, text):
    with pytest.raises(error) as err:
        parse(source, filename="prog.mc")
    assert type(err.value) is error
    assert str(err.value) == text
