"""Random Mini-C program generator for differential allocator testing.

Every generated program is, by construction:

* **terminating** — the only loops are counted ``for`` loops with constant
  bounds whose induction variable is never otherwise assigned, and calls
  form a DAG (a function may only call previously generated functions);
* **fault-free** — array indices are reduced modulo the (constant) array
  extent from non-negative quantities, divisions and moduli are by nonzero
  constants, every scalar is initialized at declaration, and ``&&``/``||``
  operands are comparisons (well-typed ints);
* **observable** — values are funneled through ``print`` so two compiled
  forms of the program can be compared output-for-output.

The property-based tests run the reference execution against GRA- and
RAP-allocated code for several register counts: any divergence is an
allocator bug.  This is the house fuzzer that shook out the hierarchical
spill corner cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List


@dataclass
class _Var:
    name: str
    ty: str           # "int" | "float"
    is_loop_var: bool = False


@dataclass
class _Array:
    name: str
    ty: str
    size: int


@dataclass
class _Func:
    name: str
    ret: str          # "int" | "float" | "void"
    params: List[_Var] = field(default_factory=list)
    array_params: List[_Array] = field(default_factory=list)


class ProgramGenerator:
    """Generates one random program per (seed, size) pair."""

    def __init__(self, seed: int, size: str = "medium"):
        self.rng = random.Random(seed)
        profile = {
            "small": (2, 2, 3, 2),
            "medium": (3, 3, 5, 3),
            "large": (4, 4, 8, 3),
        }[size]
        self.max_funcs, self.max_globals, self.max_stmts, self.max_depth = profile
        self._counter = 0
        self.globals: List[_Var] = []
        self.global_arrays: List[_Array] = []
        self.funcs: List[_Func] = []

    # -- naming --------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    # -- program -------------------------------------------------------------

    def generate(self) -> str:
        rng = self.rng
        lines: List[str] = []
        for _ in range(rng.randint(0, self.max_globals)):
            if rng.random() < 0.5:
                var = _Var(self._fresh("g"), rng.choice(["int", "float"]))
                self.globals.append(var)
                init = self._literal(var.ty)
                lines.append(f"{var.ty} {var.name} = {init};")
            else:
                array = _Array(
                    self._fresh("ga"), rng.choice(["int", "float"]),
                    rng.choice([4, 8, 16]),
                )
                self.global_arrays.append(array)
                lines.append(f"{array.ty} {array.name}[{array.size}];")

        for _ in range(rng.randint(0, self.max_funcs - 1)):
            lines.append(self._gen_function())
        lines.append(self._gen_main())
        return "\n".join(lines)

    def _gen_function(self) -> str:
        rng = self.rng
        func = _Func(self._fresh("f"), rng.choice(["int", "float"]))
        params: List[str] = []
        for _ in range(rng.randint(0, 3)):
            var = _Var(self._fresh("p"), rng.choice(["int", "float"]))
            func.params.append(var)
            params.append(f"{var.ty} {var.name}")
        if self.global_arrays and rng.random() < 0.4:
            source = rng.choice(self.global_arrays)
            array = _Array(self._fresh("ap"), source.ty, source.size)
            func.array_params.append(array)
            params.append(f"{array.ty} {array.name}[]")
        body = self._gen_body(
            scope=list(func.params),
            arrays=list(func.array_params),
            depth=0,
            func=func,
        )
        ret_expr = self._expr(func.ret, list(func.params), [], 1)
        body.append(f"return {ret_expr};")
        text = "\n    ".join(body)
        self.funcs.append(func)
        return f"{func.ret} {func.name}({', '.join(params)}) {{\n    {text}\n}}"

    def _gen_main(self) -> str:
        body = self._gen_body(scope=[], arrays=[], depth=0, func=None)
        text = "\n    ".join(body) if body else "print(0);"
        return f"void main() {{\n    {text}\n}}"

    # -- statements --------------------------------------------------------------

    def _gen_body(self, scope, arrays, depth, func) -> List[str]:
        rng = self.rng
        out: List[str] = []
        n = rng.randint(1, self.max_stmts)
        for _ in range(n):
            out.extend(self._gen_stmt(scope, arrays, depth, func))
        if depth == 0:
            # Make results observable.
            for var in scope[-3:]:
                out.append(f"print({var.name});")
            for array in arrays[:1]:
                out.append(f"print({array.name}[{rng.randrange(array.size)}]);")
        return out

    def _gen_stmt(self, scope, arrays, depth, func) -> List[str]:
        rng = self.rng
        choices = ["decl", "assign", "print"]
        if depth < self.max_depth:
            choices += ["if", "for"]
        if arrays or self.global_arrays:
            choices.append("array_store")
        if self.funcs:
            choices.append("call")
        kind = rng.choice(choices)

        if kind == "decl":
            var = _Var(self._fresh("v"), rng.choice(["int", "float"]))
            init = self._expr(var.ty, scope, arrays, depth + 1)
            scope.append(var)
            return [f"{var.ty} {var.name} = {init};"]

        if kind == "assign":
            targets = [v for v in scope + self.globals if not v.is_loop_var]
            if not targets:
                return [f"print({self._expr('int', scope, arrays, depth + 1)});"]
            var = rng.choice(targets)
            return [f"{var.name} = {self._expr(var.ty, scope, arrays, depth + 1)};"]

        if kind == "array_store":
            pool = arrays + self.global_arrays
            array = rng.choice(pool)
            index = self._index(array.size, scope)
            value = self._expr(array.ty, scope, arrays, depth + 1)
            return [f"{array.name}[{index}] = {value};"]

        if kind == "print":
            return [f"print({self._expr(rng.choice(['int', 'float']), scope, arrays, depth + 1)});"]

        if kind == "call":
            callee = rng.choice(self.funcs)
            args = [self._expr(p.ty, scope, arrays, depth + 1) for p in callee.params]
            for array_param in callee.array_params:
                matching = [
                    a
                    for a in self.global_arrays
                    if a.ty == array_param.ty and a.size == array_param.size
                ] or [
                    a for a in self.global_arrays if a.ty == array_param.ty
                ]
                if not matching:
                    return [f"print({self._expr('int', scope, arrays, depth + 1)});"]
                args.append(rng.choice(matching).name)
            call = f"{callee.name}({', '.join(args)})"
            if callee.ret == "void":
                return [f"{call};"]
            return [f"print({call});"]

        if kind == "if":
            cond = self._cond(scope, arrays, depth + 1)
            then_body = self._indent(
                self._gen_stmts_at(scope, arrays, depth + 1, func)
            )
            if rng.random() < 0.5:
                else_body = self._indent(
                    self._gen_stmts_at(scope, arrays, depth + 1, func)
                )
                return [f"if ({cond}) {{", *then_body, "} else {", *else_body, "}"]
            return [f"if ({cond}) {{", *then_body, "}"]

        if kind == "for":
            loop_var = _Var(self._fresh("i"), "int", is_loop_var=True)
            bound = rng.randint(1, 6)
            inner_scope = scope + [loop_var]
            body = self._indent(
                self._gen_stmts_at(inner_scope, arrays, depth + 1, func)
            )
            header = (
                f"for ({loop_var.name} = 0; {loop_var.name} < {bound}; "
                f"{loop_var.name} = {loop_var.name} + 1) {{"
            )
            return [f"int {loop_var.name};", header, *body, "}"]

        raise AssertionError(kind)

    def _gen_stmts_at(self, scope, arrays, depth, func) -> List[str]:
        out: List[str] = []
        local_scope = list(scope)
        for _ in range(self.rng.randint(1, max(2, self.max_stmts // 2))):
            out.extend(self._gen_stmt(local_scope, arrays, depth, func))
        return out

    @staticmethod
    def _indent(lines: List[str]) -> List[str]:
        return ["    " + line for line in lines]

    # -- expressions ------------------------------------------------------------------

    def _literal(self, ty: str) -> str:
        if ty == "int":
            return str(self.rng.randint(-9, 9))
        return f"{self.rng.randint(-9, 9)}.{self.rng.randint(0, 9)}"

    def _index(self, size: int, scope) -> str:
        loop_vars = [v for v in scope if v.is_loop_var]
        if loop_vars and self.rng.random() < 0.7:
            var = self.rng.choice(loop_vars)
            offset = self.rng.randint(0, 3)
            if offset:
                return f"({var.name} + {offset}) % {size}"
            return f"{var.name} % {size}"
        return str(self.rng.randrange(size))

    def _cond(self, scope, arrays, depth) -> str:
        rng = self.rng
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        ty = rng.choice(["int", "float"])
        left = self._expr(ty, scope, arrays, depth + 1)
        right = self._expr(ty, scope, arrays, depth + 1)
        base = f"{left} {op} {right}"
        if depth < self.max_depth and rng.random() < 0.3:
            other = self._cond(scope, arrays, depth + 1)
            joiner = rng.choice(["&&", "||"])
            return f"({base}) {joiner} ({other})"
        return base

    def _expr(self, ty: str, scope, arrays, depth) -> str:
        rng = self.rng
        if depth >= self.max_depth + 2 or rng.random() < 0.3:
            return self._leaf(ty, scope, arrays)
        kind = rng.random()
        if kind < 0.65:
            op = rng.choice(["+", "-", "*"])
            left = self._expr(ty, scope, arrays, depth + 1)
            right = self._expr(ty, scope, arrays, depth + 1)
            return f"({left} {op} {right})"
        if kind < 0.8 and ty == "int":
            # Safe division/modulo by a nonzero constant.
            op = rng.choice(["/", "%"])
            left = self._expr("int", scope, arrays, depth + 1)
            divisor = rng.choice([2, 3, 5, 7])
            return f"({left} {op} {divisor})"
        if kind < 0.9:
            return f"(-{self._expr(ty, scope, arrays, depth + 1)})"
        return self._leaf(ty, scope, arrays)

    def _leaf(self, ty: str, scope, arrays) -> str:
        rng = self.rng
        candidates: List[str] = []
        for var in scope + self.globals:
            if var.ty == ty:
                candidates.append(var.name)
        if ty == "float":
            # int leaves promote; allow them occasionally.
            for var in scope + self.globals:
                if var.ty == "int" and rng.random() < 0.3:
                    candidates.append(var.name)
        for array in arrays + self.global_arrays:
            if array.ty == ty:
                candidates.append(f"{array.name}[{self._index(array.size, scope)}]")
        if candidates and rng.random() < 0.8:
            return rng.choice(candidates)
        return self._literal(ty)


def random_source(seed: int, size: str = "medium") -> str:
    """Generate one deterministic random Mini-C program."""
    return ProgramGenerator(seed, size).generate()
