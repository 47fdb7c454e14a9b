"""Tests for single-register reaching definitions (ud/du chains)."""

from repro.cfg.graph import CFG
from repro.cfg.reachdefs import chains_for
from repro.compiler import compile_source
from repro.ir import iloc
from repro.ir.iloc import Instr, Op, vreg
from repro.pdg.linearize import linearize


def chains(code, reg):
    return chains_for(CFG(code), reg)


class TestStraightline:
    def test_single_def_reaches_use(self):
        code = [
            iloc.loadi(1, vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[1]) == {code[0]}
        assert result.uses_reached_by(code[0]) == [code[1]]

    def test_redefinition_kills_earlier_def(self):
        code = [
            iloc.loadi(1, vreg(0)),
            iloc.loadi(2, vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[2]) == {code[1]}
        assert result.uses_reached_by(code[0]) == []

    def test_use_and_def_in_same_instruction(self):
        code = [
            iloc.loadi(1, vreg(0)),
            iloc.binary(Op.ADD, vreg(0), vreg(0), vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[1]) == {code[0]}
        assert result.defs_reaching(code[2]) == {code[1]}


class TestBranching:
    def test_both_arms_reach_join(self):
        code = [
            iloc.loadi(1, vreg(9)),
            iloc.cbr(vreg(9), "T", "F"),
            iloc.label("T"),
            iloc.loadi(1, vreg(0)),
            iloc.jmp("E"),
            iloc.label("F"),
            iloc.loadi(2, vreg(0)),
            iloc.label("E"),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[8]) == {code[3], code[6]}

    def test_loop_carried_def_reaches_header_use(self):
        code = [
            iloc.loadi(0, vreg(0)),
            iloc.label("H"),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            iloc.loadi(1, vreg(1)),
            iloc.binary(Op.ADD, vreg(0), vreg(1), vreg(0)),
            iloc.jmp("H"),
        ]
        result = chains(code, vreg(0))
        reaching = result.defs_reaching(code[2])
        assert code[0] in reaching and code[4] in reaching


class TestParams:
    def test_prologue_ldm_reaches_first_param_use(self):
        source = "int f(int n) { print(n); return n; } void main() { print(f(3)); }"
        func = compile_source(source).module.functions["f"]
        param = func.params[0].reg
        code = linearize(func).instrs
        first_use = next(instr for instr in code if param in instr.uses)
        result = chains_for(CFG(code), param)
        (definition,) = result.defs_reaching(first_use)
        assert definition.op is Op.LDM and definition.dst == param
        assert definition is code[0]
