"""Lowering from the Mini-C AST to a PDG with attached iloc code.

This is the reproduction's equivalent of the paper's front-end pipeline:
``pdgcc`` producing a PDG, followed by RAP "generating and attaching
low-level intermediate code to the corresponding region nodes" (§4).

Lowering rules
--------------

* Scalar locals and parameters live in dedicated virtual registers
  ("definitions and uses in the intermediate code are references to
  virtual registers", §3); expression temporaries get fresh registers.
* Scalar assignments end in an explicit ``i2i`` copy from the expression
  temporary into the variable's register — the "copy statements in the
  unallocated iloc code" whose elimination §4 analyzes.
* Global scalars are memory resident (``ldm``/``stm`` on a global-space
  symbol); arrays live in the data heap and are indexed by explicit
  address arithmetic.
* ``&&``/``||`` evaluate both operands (no short-circuit control flow
  inside expressions), keeping every expression's code straight-line so it
  can attach to a single region node.  Benchmark sources are written
  accordingly.

Region granularity
------------------

``granularity="statement"`` (default) gives every source statement its own
region node, reproducing pdgcc's behaviour that §3.3/§4 discuss at length.
``granularity="merged"`` attaches simple statements directly to the
enclosing region — the larger-region variant the paper's conclusions
propose — and is used by the region-granularity ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..frontend import ast
from ..frontend.errors import SemanticError
from ..frontend.sema import SemaInfo, VarSymbol, analyze, constant_value
from ..pdg.graph import GlobalVar, Module, ParamInfo, PDGFunction
from ..pdg.nodes import Predicate, Region
from . import iloc
from .iloc import Instr, Op, Reg, Symbol

_CMP_OPS = {
    "<": Op.CMP_LT,
    "<=": Op.CMP_LE,
    ">": Op.CMP_GT,
    ">=": Op.CMP_GE,
    "==": Op.CMP_EQ,
    "!=": Op.CMP_NE,
}

_ARITH_OPS = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "%": Op.MOD,
    "&&": Op.AND,
    "||": Op.OR,
}

GRANULARITIES = ("statement", "merged")


def arg_slot_name(func_name: str, index: int) -> str:
    """The spill-space slot holding incoming argument ``index``."""
    return f"{func_name}.arg{index}"


def build_module(
    program: ast.Program,
    info: Optional[SemaInfo] = None,
    granularity: str = "statement",
) -> Module:
    """Lower a type-checked program to a :class:`~repro.pdg.graph.Module`."""
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}")
    if info is None:
        info = analyze(program)
    module = Module()
    for decl in program.globals:
        init = constant_value(decl.init) if decl.init is not None else None
        module.add_global(
            GlobalVar(decl.name, decl.base_type, list(decl.dims), init)
        )
    for func in program.functions:
        module.add_function(_FunctionBuilder(module, func, granularity).build())
    return module


class _FunctionBuilder:
    def __init__(self, module: Module, func: ast.FuncDecl, granularity: str):
        self._module = module
        self._ast = func
        self._granularity = granularity
        params = [
            ParamInfo(p.name, iloc.vreg(i), p.base_type, p.is_array)
            for i, p in enumerate(func.params)
        ]
        self._func = PDGFunction(func.name, func.ret_type, params)
        self._func.reserve_vregs(len(params))
        # Home register for each scalar variable / base register for each
        # local array, keyed by the identity of its VarSymbol.
        self._home: Dict[int, Reg] = {}
        # Column extent for 2-D variables, by symbol identity.
        self._ncols: Dict[int, int] = {}
        self._allocas: List[Instr] = []

    def build(self) -> PDGFunction:
        prologue: List[Instr] = []
        for index, (param, info) in enumerate(
            zip(self._ast.params, self._func.params)
        ):
            symbol = param.symbol  # type: ignore[attr-defined]
            self._home[id(symbol)] = info.reg
            if len(param.dims) == 2:
                self._ncols[id(symbol)] = param.dims[1]
            # Incoming arguments arrive in per-activation memory slots (the
            # C convention pdgcc would see); the prologue loads each into
            # its home register, making parameters ordinary allocatable
            # (and spillable) virtual registers.
            prologue.append(
                iloc.ldm(Symbol(arg_slot_name(self._func.name, index)), info.reg)
            )
        entry = self._func.entry
        self._build_stmts(self._ast.body, entry)
        # Hoist local-array allocations to the top of the entry region so a
        # declaration inside a loop does not allocate per iteration; the
        # parameter loads come first.
        for alloca in reversed(self._allocas):
            entry.items.insert(0, alloca)
        entry.items[0:0] = prologue
        return self._func

    def _new_temp(self) -> Reg:
        return self._func.new_vreg()

    # -- statements -----------------------------------------------------------

    def _build_stmts(self, stmts: List[ast.Stmt], region: Region) -> None:
        for stmt in stmts:
            self._build_stmt(stmt, region)

    def _is_simple(self, stmt: ast.Stmt) -> bool:
        return isinstance(
            stmt, (ast.VarDecl, ast.Assign, ast.Return, ast.Print, ast.ExprStmt)
        )

    def _build_stmt(self, stmt: ast.Stmt, parent: Region) -> None:
        if self._is_simple(stmt):
            if self._granularity == "statement":
                region = Region(kind="stmt", note=type(stmt).__name__)
                self._emit_simple(stmt, region.items)
                if region.items:
                    parent.items.append(region)
            else:
                self._emit_simple(stmt, parent.items)
        elif isinstance(stmt, ast.If):
            parent.items.append(self._build_if(stmt))
        elif isinstance(stmt, ast.While):
            parent.items.append(self._build_while(stmt))
        elif isinstance(stmt, ast.For):
            self._build_for(stmt, parent)
        else:  # pragma: no cover - sema rejects everything else
            raise SemanticError(f"cannot lower {type(stmt).__name__}", stmt.location)

    def _build_if(self, stmt: ast.If) -> Region:
        region = Region(kind="stmt", note="if")
        cond = self._eval(stmt.cond, region.items)
        then_region = Region(kind="branch", note="then")
        self._build_stmts(stmt.then_body, then_region)
        else_region: Optional[Region] = None
        if stmt.else_body:
            else_region = Region(kind="branch", note="else")
            self._build_stmts(stmt.else_body, else_region)
        region.items.append(Predicate(cond, then_region, else_region))
        return region

    def _build_while(self, stmt: ast.While) -> Region:
        loop = Region(kind="loop", is_loop=True, note="while")
        cond = self._eval(stmt.cond, loop.items)
        body = Region(kind="body", note="while body")
        self._build_stmts(stmt.body, body)
        loop.items.append(Predicate(cond, body, None))
        return loop

    def _build_for(self, stmt: ast.For, parent: Region) -> None:
        if stmt.init is not None:
            self._build_stmt(stmt.init, parent)
        loop = Region(kind="loop", is_loop=True, note="for")
        if stmt.cond is not None:
            cond = self._eval(stmt.cond, loop.items)
        else:
            cond = self._new_temp()
            loop.items.append(iloc.loadi(1, cond))
        body = Region(kind="body", note="for body")
        self._build_stmts(stmt.body, body)
        if stmt.update is not None:
            self._build_stmt(stmt.update, body)
        loop.items.append(Predicate(cond, body, None))
        parent.items.append(loop)

    def _emit_simple(self, stmt: ast.Stmt, out: List) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._emit_var_decl(stmt, out)
        elif isinstance(stmt, ast.Assign):
            self._emit_assign(stmt, out)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, out)
                out.append(Instr(Op.RET, srcs=[value]))
            else:
                out.append(Instr(Op.RET))
        elif isinstance(stmt, ast.Print):
            value = self._eval(stmt.value, out)
            out.append(Instr(Op.PRINT, srcs=[value]))
        elif isinstance(stmt, ast.ExprStmt):
            self._eval_call(stmt.call, out, want_value=False)
        else:  # pragma: no cover
            raise AssertionError(type(stmt).__name__)

    def _emit_var_decl(self, stmt: ast.VarDecl, out: List) -> None:
        symbol = stmt.symbol  # type: ignore[attr-defined]
        if stmt.is_array:
            base = self._new_temp()
            self._home[id(symbol)] = base
            if len(stmt.dims) == 2:
                self._ncols[id(symbol)] = stmt.dims[1]
            self._allocas.append(Instr(Op.ALLOCA, imm=stmt.size, dst=base))
            return
        home = self._new_temp()
        self._home[id(symbol)] = home
        if stmt.init is not None:
            value = self._eval(stmt.init, out)
            out.append(iloc.copy(value, home))

    def _emit_assign(self, stmt: ast.Assign, out: List) -> None:
        value = self._eval(stmt.value, out)
        target = stmt.target
        if isinstance(target, ast.Name):
            symbol: VarSymbol = target.symbol  # type: ignore[attr-defined]
            if symbol.kind == "global":
                out.append(iloc.stm(Symbol(symbol.name, "global"), value))
            else:
                out.append(iloc.copy(value, self._home[id(symbol)]))
        else:
            assert isinstance(target, ast.Index)
            addr = self._eval_address(target, out)
            out.append(iloc.store(value, addr))

    # -- expressions ------------------------------------------------------------

    def _eval(self, expr: ast.Expr, out: List) -> Reg:
        """Emit code computing ``expr``; return the register holding it."""
        if isinstance(expr, ast.IntLit):
            temp = self._new_temp()
            out.append(iloc.loadi(expr.value, temp))
            return temp
        if isinstance(expr, ast.FloatLit):
            temp = self._new_temp()
            out.append(iloc.loadi(expr.value, temp))
            return temp
        if isinstance(expr, ast.Name):
            symbol: VarSymbol = expr.symbol  # type: ignore[attr-defined]
            if symbol.kind == "global":
                temp = self._new_temp()
                out.append(iloc.ldm(Symbol(symbol.name, "global"), temp))
                return temp
            return self._home[id(symbol)]
        if isinstance(expr, ast.Index):
            addr = self._eval_address(expr, out)
            temp = self._new_temp()
            out.append(iloc.load(addr, temp))
            return temp
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, out)
            temp = self._new_temp()
            op = Op.NEG if expr.op == "-" else Op.NOT
            out.append(Instr(op, srcs=[operand], dst=temp))
            return temp
        if isinstance(expr, ast.Binary):
            left = self._eval(expr.left, out)
            right = self._eval(expr.right, out)
            temp = self._new_temp()
            op = _CMP_OPS.get(expr.op) or _ARITH_OPS[expr.op]
            out.append(iloc.binary(op, left, right, temp))
            return temp
        if isinstance(expr, ast.Call):
            result = self._eval_call(expr, out, want_value=True)
            assert result is not None
            return result
        raise AssertionError(type(expr).__name__)  # pragma: no cover

    def _eval_call(
        self, call: ast.Call, out: List, want_value: bool
    ) -> Optional[Reg]:
        args: List[Reg] = []
        for arg in call.args:
            symbol = getattr(arg, "symbol", None)
            if isinstance(arg, ast.Name) and symbol is not None and symbol.is_array:
                args.append(self._array_base(symbol, out))
            else:
                args.append(self._eval(arg, out))
        for arg in args:
            out.append(Instr(Op.PARAM, srcs=[arg]))
        dest = self._new_temp() if want_value else None
        out.append(Instr(Op.CALL, dst=dest, callee=call.callee))
        return dest

    def _array_base(self, symbol: VarSymbol, out: List) -> Reg:
        """Register holding the base address of an array variable."""
        if symbol.kind == "global":
            temp = self._new_temp()
            out.append(
                Instr(Op.LOADA, addr=Symbol(symbol.name, "global"), dst=temp)
            )
            return temp
        # Local arrays: the alloca result; array params: the incoming base.
        return self._home[id(symbol)]

    def _eval_address(self, expr: ast.Index, out: List) -> Reg:
        symbol: VarSymbol = expr.symbol  # type: ignore[attr-defined]
        base = self._array_base(symbol, out)
        if len(expr.indices) == 1:
            offset = self._eval(expr.indices[0], out)
        else:
            row = self._eval(expr.indices[0], out)
            col = self._eval(expr.indices[1], out)
            ncols = self._column_extent(symbol)
            ncols_reg = self._new_temp()
            out.append(iloc.loadi(ncols, ncols_reg))
            scaled = self._new_temp()
            out.append(iloc.binary(Op.MUL, row, ncols_reg, scaled))
            offset = self._new_temp()
            out.append(iloc.binary(Op.ADD, scaled, col, offset))
        addr = self._new_temp()
        out.append(iloc.binary(Op.ADD, base, offset, addr))
        return addr

    def _column_extent(self, symbol: VarSymbol) -> int:
        if id(symbol) in self._ncols:
            return self._ncols[id(symbol)]
        if len(symbol.dims) == 2 and symbol.dims[1]:
            return symbol.dims[1]
        raise SemanticError(
            f"unknown column extent for array {symbol.name!r}", None
        )
