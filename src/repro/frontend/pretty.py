"""Mini-C unparser.

Turns an AST back into source text that parses to an equivalent AST —
pinned by a round-trip property test over the random program generator.
Useful for dumping minimized fuzzer findings and for the CLI's diagnostic
output.
"""

from __future__ import annotations

import math
from typing import List

from . import ast
from .tokens import TokenKind

_UNARY_PRECEDENCE = max(ast.BINARY_PRECEDENCE.values()) + 1


def pretty_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    """Render one expression, parenthesizing only where needed."""
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.FloatLit):
        if math.isinf(expr.value):
            # An overflowing literal: repr's "inf" would parse as a name.
            return "1e999"
        text = repr(expr.value)
        return text if ("." in text or "e" in text) else text + ".0"
    if isinstance(expr, ast.Name):
        return expr.name
    if isinstance(expr, ast.Index):
        indices = "".join(f"[{pretty_expr(i)}]" for i in expr.indices)
        return f"{expr.name}{indices}"
    if isinstance(expr, ast.Call):
        args = ", ".join(pretty_expr(a) for a in expr.args)
        return f"{expr.callee}({args})"
    if isinstance(expr, ast.Unary):
        inner = pretty_expr(expr.operand, _UNARY_PRECEDENCE)
        text = f"{expr.op}{inner}"
        # `--x` would lex as two minus tokens... it actually lexes as two
        # separate MINUS tokens and parses as -(-x); still, keep a space
        # for readability when nesting the same operator.
        if expr.op == "-" and inner.startswith("-"):
            text = f"-({inner})"
        return text if parent_prec < _UNARY_PRECEDENCE else f"({text})"
    if isinstance(expr, ast.Binary):
        prec = ast.BINARY_PRECEDENCE[TokenKind(expr.op)]
        left = pretty_expr(expr.left, prec - 1)   # left-assoc: allow equal
        right = pretty_expr(expr.right, prec)     # right side needs higher
        text = f"{left} {expr.op} {right}"
        return text if parent_prec < prec else f"({text})"
    raise TypeError(f"cannot pretty-print {type(expr).__name__}")


def _pretty_stmt(stmt: ast.Stmt, indent: int, out: List[str]) -> None:
    pad = "    " * indent

    if isinstance(stmt, ast.VarDecl):
        dims = "".join(f"[{d}]" for d in stmt.dims)
        init = f" = {pretty_expr(stmt.init)}" if stmt.init is not None else ""
        out.append(f"{pad}{stmt.base_type} {stmt.name}{dims}{init};")
    elif isinstance(stmt, ast.Assign):
        target = pretty_expr(stmt.target)
        out.append(f"{pad}{target} = {pretty_expr(stmt.value)};")
    elif isinstance(stmt, ast.If):
        out.append(f"{pad}if ({pretty_expr(stmt.cond)}) {{")
        for inner in stmt.then_body:
            _pretty_stmt(inner, indent + 1, out)
        if stmt.else_body:
            out.append(f"{pad}}} else {{")
            for inner in stmt.else_body:
                _pretty_stmt(inner, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, ast.While):
        out.append(f"{pad}while ({pretty_expr(stmt.cond)}) {{")
        for inner in stmt.body:
            _pretty_stmt(inner, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, ast.For):
        init = _clause(stmt.init)
        cond = pretty_expr(stmt.cond) if stmt.cond is not None else ""
        update = _clause(stmt.update)
        out.append(f"{pad}for ({init}; {cond}; {update}) {{")
        for inner in stmt.body:
            _pretty_stmt(inner, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, ast.Return):
        if stmt.value is None:
            out.append(f"{pad}return;")
        else:
            out.append(f"{pad}return {pretty_expr(stmt.value)};")
    elif isinstance(stmt, ast.Print):
        out.append(f"{pad}print({pretty_expr(stmt.value)});")
    elif isinstance(stmt, ast.ExprStmt):
        out.append(f"{pad}{pretty_expr(stmt.call)};")
    else:
        raise TypeError(f"cannot pretty-print {type(stmt).__name__}")


def _clause(stmt) -> str:
    if stmt is None:
        return ""
    assert isinstance(stmt, ast.Assign)
    return f"{pretty_expr(stmt.target)} = {pretty_expr(stmt.value)}"


def pretty_program(program: ast.Program) -> str:
    """Render a whole translation unit."""
    out: List[str] = []
    for decl in program.globals:
        _pretty_stmt(decl, 0, out)
    for func in program.functions:
        params = ", ".join(_pretty_param(p) for p in func.params)
        out.append(f"{func.ret_type} {func.name}({params}) {{")
        for stmt in func.body:
            _pretty_stmt(stmt, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"


def _pretty_param(param: ast.Param) -> str:
    if not param.is_array:
        return f"{param.base_type} {param.name}"
    if len(param.dims) == 2:
        return f"{param.base_type} {param.name}[][{param.dims[1]}]"
    return f"{param.base_type} {param.name}[]"
