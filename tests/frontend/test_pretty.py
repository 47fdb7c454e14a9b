"""Tests for the Mini-C unparser, including the parse∘pretty round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.frontend.parser import parse
from repro.frontend.pretty import pretty_expr, pretty_program
from repro.interp.machine import run_program
from repro.testing import outputs_equal, random_source


def roundtrip(source):
    return pretty_program(parse(source))


class TestExpressions:
    def expr_of(self, text):
        program = parse(f"void f() {{ int x; int a; x = {text}; }}")
        return program.functions[0].body[2].value

    @pytest.mark.parametrize(
        "text",
        [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "1 - 2 - 3",
            "1 - (2 - 3)",
            "-x + 1",
            "-(x + 1)",
            "a % 2 == 0 && x < 3",
            "!(a < 1) || x != 2",
            "a / 2 / 3",
            "a - -x",
        ],
    )
    def test_precedence_preserving(self, text):
        first = self.expr_of(text)
        rendered = pretty_expr(first)
        second = self.expr_of(rendered)
        assert pretty_expr(second) == rendered  # fixed point

    def test_float_literal_keeps_point(self):
        assert pretty_expr(self.expr_of("1.5")) == "1.5"
        assert "." in pretty_expr(self.expr_of("2.0"))


class TestPrograms:
    def test_simple_roundtrip_is_fixed_point(self):
        source = """
        int g = 4;
        int f(int a, float v[]) {
            int i;
            for (i = 0; i < a; i = i + 1) { v[i] = i; }
            if (a > 2) { return 1; } else { return 0; }
        }
        void main() { print(g); }
        """
        once = roundtrip(source)
        twice = roundtrip(once)
        assert once == twice

    def test_two_dim_param_rendered(self):
        source = "void f(int m[][7]) { m[0][0] = 1; }"
        assert "int m[][7]" in roundtrip(source)

    def test_bare_return_rendered(self):
        assert "return;" in roundtrip("void f() { return; }")

    def test_overflowing_float_literal_roundtrips(self):
        # 1e999 overflows to inf, and "inf" would parse as a name.
        source = "void main() { float x; x = 1e999; print(x); }"
        rendered = roundtrip(source)
        assert "x = 1e999;" in rendered
        assert roundtrip(rendered) == rendered
        original = run_program(compile_source(source).reference_image())
        rebuilt = run_program(compile_source(rendered).reference_image())
        assert outputs_equal(original.output, rebuilt.output)


class TestRoundTripBehaviour:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_random_program_roundtrip_behaviour(self, seed):
        source = random_source(seed, "small")
        rendered = pretty_program(parse(source))
        original = run_program(
            compile_source(source).reference_image(), max_cycles=3_000_000
        )
        rebuilt = run_program(
            compile_source(rendered).reference_image(), max_cycles=3_000_000
        )
        assert outputs_equal(original.output, rebuilt.output), rendered

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_pretty_is_idempotent(self, seed):
        source = random_source(seed, "small")
        once = roundtrip(source)
        assert roundtrip(once) == once
