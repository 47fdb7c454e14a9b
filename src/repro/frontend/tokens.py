"""Token definitions for the Mini-C lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .errors import SourceLocation


class TokenKind(enum.Enum):
    """Every terminal of the Mini-C grammar."""

    # Literals and identifiers.
    INT_LIT = "int_lit"
    FLOAT_LIT = "float_lit"
    IDENT = "ident"

    # Keywords.
    KW_INT = "int"
    KW_FLOAT = "float"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_PRINT = "print"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"

    # Operators.
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "<eof>"


KEYWORDS = {kind.value: kind for kind in TokenKind if kind.name.startswith("KW_")}


@dataclass(frozen=True)
class Token:
    """A single lexeme with its decoded value and source location."""

    kind: TokenKind
    text: str
    location: SourceLocation
    value: Union[int, float, None] = None

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
