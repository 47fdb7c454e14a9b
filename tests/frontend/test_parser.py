"""Parser unit tests."""

import pytest

from repro.frontend import ast
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse
from repro.frontend.pretty import pretty_expr


def parse_stmts(body):
    program = parse("void f() { %s }" % body)
    return program.functions[0].body


def parse_expr(expr):
    stmts = parse_stmts("int x; x = %s;" % expr)
    return stmts[1].value


class TestTopLevel:
    def test_empty_program(self):
        program = parse("")
        assert program.globals == [] and program.functions == []

    def test_global_scalar(self):
        program = parse("int n = 5;")
        decl = program.globals[0]
        assert decl.name == "n" and decl.base_type == "int"
        assert isinstance(decl.init, ast.IntLit) and decl.init.value == 5

    def test_global_array_one_dim(self):
        decl = parse("float x[10];").globals[0]
        assert decl.dims == [10] and decl.size == 10

    def test_global_array_two_dims(self):
        decl = parse("int m[3][4];").globals[0]
        assert decl.dims == [3, 4] and decl.size == 12

    def test_three_dims_rejected(self):
        with pytest.raises(ParseError):
            parse("int m[2][2][2];")

    def test_array_initializer_rejected(self):
        with pytest.raises(ParseError):
            parse("int m[2] = 1;")

    def test_zero_extent_rejected(self):
        with pytest.raises(ParseError):
            parse("int m[0];")

    def test_zero_column_extent_in_param_rejected(self):
        with pytest.raises(ParseError, match="array extent must be positive"):
            parse("int f(int a[][0]) { return 0; }")

    def test_function_with_params(self):
        func = parse("int f(int a, float b) { return a; }").functions[0]
        assert func.name == "f" and func.ret_type == "int"
        assert [p.name for p in func.params] == ["a", "b"]
        assert [p.base_type for p in func.params] == ["int", "float"]

    def test_array_param(self):
        func = parse("void f(float v[]) { }").functions[0]
        assert func.params[0].is_array and func.params[0].dims == [0]

    def test_two_dim_array_param(self):
        func = parse("void f(int m[][7]) { }").functions[0]
        assert func.params[0].dims == [0, 7]

    def test_void_function(self):
        assert parse("void f() { }").functions[0].ret_type == "void"

    def test_void_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("void f() { void x; }")

    def test_junk_at_top_level_rejected(self):
        with pytest.raises(ParseError):
            parse("banana")


class TestStatements:
    def test_local_decl_with_init(self):
        stmt = parse_stmts("int x = 3;")[0]
        assert isinstance(stmt, ast.VarDecl) and stmt.init.value == 3

    def test_assignment(self):
        stmt = parse_stmts("int x; x = 1;")[1]
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.target, ast.Name)

    def test_array_element_assignment(self):
        stmt = parse_stmts("int a[4]; a[2] = 1;")[1]
        assert isinstance(stmt.target, ast.Index)
        assert len(stmt.target.indices) == 1

    def test_two_dim_assignment(self):
        stmt = parse_stmts("int a[4][4]; a[1][2] = 1;")[1]
        assert len(stmt.target.indices) == 2

    def test_if_without_else(self):
        stmt = parse_stmts("int x; if (x) { x = 1; }")[1]
        assert isinstance(stmt, ast.If)
        assert len(stmt.then_body) == 1 and stmt.else_body == []

    def test_if_with_else(self):
        stmt = parse_stmts("int x; if (x) { x = 1; } else { x = 2; }")[1]
        assert len(stmt.else_body) == 1

    def test_if_with_unbraced_bodies(self):
        stmt = parse_stmts("int x; if (x) x = 1; else x = 2;")[1]
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_dangling_else_binds_to_nearest_if(self):
        stmt = parse_stmts("int x; if (x) if (x) x = 1; else x = 2;")[1]
        assert stmt.else_body == []
        inner = stmt.then_body[0]
        assert isinstance(inner, ast.If) and len(inner.else_body) == 1

    def test_while(self):
        stmt = parse_stmts("int x; while (x < 3) { x = x + 1; }")[1]
        assert isinstance(stmt, ast.While) and len(stmt.body) == 1

    def test_for_full(self):
        stmt = parse_stmts("int i; for (i = 0; i < 3; i = i + 1) { }")[1]
        assert isinstance(stmt, ast.For)
        assert stmt.init is not None and stmt.cond is not None
        assert stmt.update is not None

    def test_for_with_empty_clauses(self):
        stmt = parse_stmts("int i; for (;;) { }")[1]
        assert stmt.init is None and stmt.cond is None and stmt.update is None

    def test_return_value(self):
        program = parse("int f() { return 1 + 2; }")
        stmt = program.functions[0].body[0]
        assert isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Binary)

    def test_bare_return(self):
        stmt = parse("void f() { return; }").functions[0].body[0]
        assert stmt.value is None

    def test_print(self):
        stmt = parse_stmts("print(42);")[0]
        assert isinstance(stmt, ast.Print)

    def test_call_statement(self):
        program = parse("void g() { } void f() { g(); }")
        stmt = program.functions[1].body[0]
        assert isinstance(stmt, ast.ExprStmt) and stmt.call.callee == "g"

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            parse_stmts("int x; x = 1")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+" and expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expr("1 - 2 - 3")
        assert expr.op == "-" and expr.left.op == "-"
        assert expr.right.value == 3

    def test_parentheses_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*" and expr.left.op == "+"

    def test_comparison_precedence(self):
        expr = parse_expr("1 + 2 < 3 * 4")
        assert expr.op == "<"

    def test_logical_precedence(self):
        # || binds loosest, then &&, then equality.
        expr = parse_expr("1 == 2 && 3 < 4 || 0")
        assert expr.op == "||" and expr.left.op == "&&"

    def test_unary_minus(self):
        expr = parse_expr("-x")
        assert isinstance(expr, ast.Unary) and expr.op == "-"

    def test_double_negation(self):
        expr = parse_expr("!!x")
        assert expr.op == "!" and expr.operand.op == "!"

    def test_unary_binds_tighter_than_mul(self):
        expr = parse_expr("-x * 2")
        assert expr.op == "*" and isinstance(expr.left, ast.Unary)

    def test_call_expression_with_args(self):
        program = parse("int g(int a) { return a; } void f() { int x; x = g(1); }")
        call = program.functions[1].body[1].value
        assert isinstance(call, ast.Call) and len(call.args) == 1

    def test_nested_index_expression(self):
        expr = parse_expr("a[i + 1]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.indices[0], ast.Binary)

    def test_mod_operator(self):
        assert parse_expr("a % 2").op == "%"

    def test_unclosed_paren_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("(1 + 2")


# C's binary operators, tightest first (K&R, table 2-1); each level is
# left-associative.  Written out here so the test checks the parser's
# table rather than repeating it.
C_LEVELS = [
    ("*", "/", "%"),
    ("+", "-"),
    ("<", "<=", ">", ">="),
    ("==", "!="),
    ("&&",),
    ("||",),
]
C_TIGHTNESS = {op: -level for level, ops in enumerate(C_LEVELS) for op in ops}


def shape(expr):
    if isinstance(expr, ast.Binary):
        return (expr.op, shape(expr.left), shape(expr.right))
    assert isinstance(expr, ast.Name)
    return expr.name


class TestOperatorPairs:
    @pytest.mark.parametrize("op2", list(C_TIGHTNESS))
    @pytest.mark.parametrize("op1", list(C_TIGHTNESS))
    def test_pair_shape_and_pretty_roundtrip(self, op1, op2):
        tree = parse_expr(f"a {op1} b {op2} c")
        if C_TIGHTNESS[op1] >= C_TIGHTNESS[op2]:
            expected = (op2, (op1, "a", "b"), "c")
        else:
            expected = (op1, "a", (op2, "b", "c"))
        assert shape(tree) == expected
        assert shape(parse_expr(pretty_expr(tree))) == expected
