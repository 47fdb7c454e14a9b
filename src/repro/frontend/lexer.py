"""Regular-expression lexer for Mini-C.

Mini-C is the small imperative language in which all benchmark programs of
this reproduction are written.  It is a strict subset of C: ``int`` and
``float`` scalars, fixed-size one- and two-dimensional arrays, functions
with recursion, ``if``/``while``/``for`` control flow, and a ``print``
builtin used by the test suite to compare observable behaviour across
register allocators.

One master pattern with a named group per lexeme class scans the source.
Operator spellings and keywords are read off :class:`TokenKind`, so each is
written down once.  Trivia is whitespace (space, tab, CR, LF), ``//`` line
comments and ``/* ... */`` block comments; line and column are tracked by
counting the newlines in the trivia skipped.  Numbers are ASCII digits, as
in C; identifiers start with a letter or ``_`` (``str.isalpha``) and
continue with letters, digits or ``_`` (``str.isalnum``).
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

# Every terminal spelled by its value other than a keyword: punctuation and operators.
_OPERATORS = {
    kind.value: kind
    for kind in TokenKind
    if not kind.value.isidentifier() and kind is not TokenKind.EOF
}

_TOKEN_RE = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)+)"
    # A `/*` that the trivia group could not close.
    r"|(?P<open_comment>/\*)"
    # The exponent's digits are optional here so that `1e`, `1e+` and
    # `1else` are reported as malformed rather than split.
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)"
    r"|(?P<name>\w+)"
    # Longest spelling first, so `<=` is never read as `<` then `=`.
    r"|(?P<op>"
    + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
    + ")"
)


def tokenize(source: str, filename: str = "<string>") -> List[Token]:
    """Tokenize ``source`` and return the complete token list (incl. EOF)."""
    tokens: List[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        group = match.lastgroup if match else None
        if group == "trivia":
            newlines = source.count("\n", pos, match.end())
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, match.end()) + 1
            pos = match.end()
            continue
        location = SourceLocation(line, pos - line_start + 1, filename)
        first = source[pos]
        if group is None or (group == "name" and not (first.isalpha() or first == "_")):
            raise LexError(f"unexpected character {first!r}", location)
        if group == "open_comment":
            raise LexError("unterminated block comment", location)
        text = match.group()
        pos = match.end()
        if group == "number":
            if text[-1] in "eE+-":
                end = SourceLocation(line, pos - line_start + 1, filename)
                raise LexError("malformed exponent", end)
            if text.isdigit():
                tokens.append(Token(TokenKind.INT_LIT, text, location, int(text)))
            else:
                tokens.append(Token(TokenKind.FLOAT_LIT, text, location, float(text)))
        elif group == "name":
            tokens.append(Token(KEYWORDS.get(text, TokenKind.IDENT), text, location))
        else:
            tokens.append(Token(_OPERATORS[text], text, location))
    end = SourceLocation(line, pos - line_start + 1, filename)
    tokens.append(Token(TokenKind.EOF, "", end))
    return tokens
