"""Recursive-descent parser for Mini-C.

Grammar (EBNF):

.. code-block:: text

    program   := (global_decl | func_decl)*
    decl_head := ('int' | 'float' | 'void') IDENT
    global    := decl_head ('[' INT ']' ('[' INT ']')?)? ('=' expr)? ';'
    function  := decl_head '(' [param {',' param}] ')' block
    param     := ('int'|'float') IDENT ('[' ']' ('[' INT ']')?)?
    block     := '{' {stmt} '}'
    stmt      := var_decl ';' | assign ';' | call ';' | if | while | for
               | 'return' [expr] ';' | 'print' '(' expr ')' ';'
    assign    := lvalue '=' expr
    lvalue    := IDENT {'[' expr ']'}
    expr      := unary {binop unary}
    unary     := ('-' | '!') unary | primary
    primary   := INT | FLOAT | '(' expr ')' | IDENT '(' [expr {',' expr}] ')'
               | IDENT {'[' expr ']'}

Every ``INT`` extent in a declarator must be positive, and an lvalue or
primary takes at most two subscripts.  Binary expressions are parsed by
precedence climbing over :data:`repro.frontend.ast.BINARY_PRECEDENCE`
(C's precedence, all left-associative), the table the pretty-printer
parenthesizes by.

Expressions are side-effect free except calls; assignment is a statement,
which keeps the PDG construction (one region node per source statement)
well defined exactly as in the ``pdgcc`` front end the paper used.
"""

from __future__ import annotations

from typing import List, Optional, Union

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind

_TYPE_KINDS = (TokenKind.KW_INT, TokenKind.KW_FLOAT, TokenKind.KW_VOID)


class Parser:
    """Parses a token stream into a :class:`repro.frontend.ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokenKind) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {token.text or token.kind.value!r}",
                token.location,
            )
        return self._advance()

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    # -- program structure --------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._at(TokenKind.EOF):
            token = self._peek()
            if token.kind not in _TYPE_KINDS:
                raise ParseError(
                    f"expected declaration, found {token.text!r}", token.location
                )
            # Lookahead past `type IDENT` to see `(` (function) or not (global).
            if self._peek(2).kind is TokenKind.LPAREN:
                program.functions.append(self._parse_function())
            else:
                program.globals.append(self._parse_var_decl(global_scope=True))
        return program

    def _parse_type(self, allow_void: bool = False) -> str:
        token = self._advance()
        if token.kind is TokenKind.KW_INT:
            return ast.INT
        if token.kind is TokenKind.KW_FLOAT:
            return ast.FLOAT
        if token.kind is TokenKind.KW_VOID and allow_void:
            return ast.VOID
        raise ParseError(f"expected type, found {token.text!r}", token.location)

    def _parse_function(self) -> ast.FuncDecl:
        location = self._peek().location
        ret_type = self._parse_type(allow_void=True)
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LPAREN)
        params: List[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            params.append(self._parse_param())
            while self._match(TokenKind.COMMA):
                params.append(self._parse_param())
        self._expect(TokenKind.RPAREN)
        body = self._parse_block()
        return ast.FuncDecl(name, ret_type, params, body, location)

    def _parse_param(self) -> ast.Param:
        location = self._peek().location
        base_type = self._parse_type()
        name = self._expect(TokenKind.IDENT).text
        dims: List[int] = []
        if self._match(TokenKind.LBRACKET):
            self._expect(TokenKind.RBRACKET)
            dims.append(0)
            if self._match(TokenKind.LBRACKET):
                dims.append(self._parse_extent())
        return ast.Param(name, base_type, location, dims)

    def _parse_extent(self) -> int:
        """``INT ']'`` after a declarator's ``'['``: a positive array extent."""
        extent = self._expect(TokenKind.INT_LIT)
        if extent.value <= 0:  # type: ignore[operator]
            raise ParseError("array extent must be positive", extent.location)
        self._expect(TokenKind.RBRACKET)
        return int(extent.value)  # type: ignore[arg-type]

    def _parse_var_decl(self, global_scope: bool = False) -> ast.VarDecl:
        location = self._peek().location
        base_type = self._parse_type()
        name = self._expect(TokenKind.IDENT).text
        dims: List[int] = []
        while self._match(TokenKind.LBRACKET):
            dims.append(self._parse_extent())
        if len(dims) > 2:
            raise ParseError("at most two array dimensions supported", location)
        init: Optional[ast.Expr] = None
        if self._match(TokenKind.ASSIGN):
            if dims:
                raise ParseError("array initializers are not supported", location)
            init = self._parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.VarDecl(location, name, base_type, dims, init)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> List[ast.Stmt]:
        self._expect(TokenKind.LBRACE)
        stmts: List[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            stmts.append(self._parse_stmt())
        self._expect(TokenKind.RBRACE)
        return stmts

    def _parse_body(self) -> List[ast.Stmt]:
        """A statement body: either a braced block or a single statement."""
        if self._at(TokenKind.LBRACE):
            return self._parse_block()
        return [self._parse_stmt()]

    def _parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        if token.kind in (TokenKind.KW_INT, TokenKind.KW_FLOAT):
            return self._parse_var_decl()
        if token.kind is TokenKind.KW_IF:
            return self._parse_if()
        if token.kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if token.kind is TokenKind.KW_FOR:
            return self._parse_for()
        if token.kind is TokenKind.KW_RETURN:
            return self._parse_return()
        if token.kind is TokenKind.KW_PRINT:
            return self._parse_print()
        if token.kind is TokenKind.IDENT:
            if self._peek(1).kind is TokenKind.LPAREN:
                call = self._parse_primary()
                assert isinstance(call, ast.Call)
                self._expect(TokenKind.SEMI)
                return ast.ExprStmt(token.location, call)
            stmt = self._parse_assign()
            self._expect(TokenKind.SEMI)
            return stmt
        raise ParseError(f"expected statement, found {token.text!r}", token.location)

    def _parse_assign(self) -> ast.Assign:
        location = self._peek().location
        target = self._parse_name_suffix(self._expect(TokenKind.IDENT))
        self._expect(TokenKind.ASSIGN)
        value = self._parse_expr()
        return ast.Assign(location, target, value)

    def _parse_if(self) -> ast.If:
        location = self._expect(TokenKind.KW_IF).location
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        then_body = self._parse_body()
        else_body: List[ast.Stmt] = []
        if self._match(TokenKind.KW_ELSE):
            else_body = self._parse_body()
        return ast.If(location, cond, then_body, else_body)

    def _parse_while(self) -> ast.While:
        location = self._expect(TokenKind.KW_WHILE).location
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_body()
        return ast.While(location, cond, body)

    def _parse_for(self) -> ast.For:
        location = self._expect(TokenKind.KW_FOR).location
        self._expect(TokenKind.LPAREN)
        init = None if self._at(TokenKind.SEMI) else self._parse_assign()
        self._expect(TokenKind.SEMI)
        cond = None if self._at(TokenKind.SEMI) else self._parse_expr()
        self._expect(TokenKind.SEMI)
        update = None if self._at(TokenKind.RPAREN) else self._parse_assign()
        self._expect(TokenKind.RPAREN)
        body = self._parse_body()
        return ast.For(location, init, cond, update, body)

    def _parse_return(self) -> ast.Return:
        location = self._expect(TokenKind.KW_RETURN).location
        value = None if self._at(TokenKind.SEMI) else self._parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.Return(location, value)

    def _parse_print(self) -> ast.Print:
        location = self._expect(TokenKind.KW_PRINT).location
        self._expect(TokenKind.LPAREN)
        value = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        return ast.Print(location, value)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self, min_prec: int = 1) -> ast.Expr:
        """Operands joined by operators of precedence ``min_prec`` or tighter."""
        left = self._parse_unary()
        while True:
            op = self._peek()
            prec = ast.BINARY_PRECEDENCE.get(op.kind, 0)
            if prec < min_prec:
                return left
            self._advance()
            right = self._parse_expr(prec + 1)
            left = ast.Binary(op.location, op.text, left, right)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind in (TokenKind.MINUS, TokenKind.NOT):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(token.location, token.text, operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(token.location, int(token.value))  # type: ignore[arg-type]
        if token.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLit(token.location, float(token.value))  # type: ignore[arg-type]
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._match(TokenKind.LPAREN):
                args: List[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self._parse_expr())
                    while self._match(TokenKind.COMMA):
                        args.append(self._parse_expr())
                self._expect(TokenKind.RPAREN)
                return ast.Call(token.location, token.text, args)
            return self._parse_name_suffix(token)
        raise ParseError(f"expected expression, found {token.text!r}", token.location)

    def _parse_name_suffix(self, name: Token) -> Union[ast.Name, ast.Index]:
        """``{'[' expr ']'}`` after identifier ``name``: a variable or an element."""
        if not self._at(TokenKind.LBRACKET):
            return ast.Name(name.location, name.text)
        indices: List[ast.Expr] = []
        while self._match(TokenKind.LBRACKET):
            indices.append(self._parse_expr())
            self._expect(TokenKind.RBRACKET)
        if len(indices) > 2:
            raise ParseError("at most two array dimensions", name.location)
        return ast.Index(name.location, name.text, indices)


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse Mini-C ``source`` into an (untyped) AST."""
    return Parser(tokenize(source, filename)).parse_program()
