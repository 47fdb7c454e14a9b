"""Pre-decoded interpreter images: the compiled tier's input format.

:mod:`repro.interp.pycompile` translates a function from this dense form
rather than from its :class:`~repro.ir.iloc.Instr` list.  Decoding a
:class:`FunctionImage` once:

* strips labels and pre-resolves branch and jump targets to *decoded*
  pc integers;
* unpacks operands out of :class:`~repro.ir.iloc.Instr` into flat
  per-op tuples whose first element is a small-int opcode;
* renumbers register operands into dense per-function integer indices
  (``DecodedFunction.regs`` maps an index back to the original
  :class:`Reg`, so fault messages are byte-identical to the slow path's
  and a bailing compiled activation can hand its registers back to the
  slow loop under their ``Reg`` keys);
* splits ``ldm``/``stm`` into spill/global variants.

Decoded code is machine-independent: a decoded image cached on its
:class:`FunctionImage` is shared by every machine (and every sweep cell)
executing that image.  ``pc_map`` maps each decoded pc back to the
original code index, so compiled-tier faults are annotated, and bails
resume, in original-code coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.iloc import Instr, Op, Reg

# -- small-int opcodes -------------------------------------------------------

OP_RET = 0
OP_CALL = 1
OP_LOADI = 2
OP_ADD = 3
OP_SUB = 4
OP_MUL = 5
OP_DIV = 6
OP_MOD = 7
OP_NEG = 8
OP_CMP_LT = 9
OP_CMP_LE = 10
OP_CMP_GT = 11
OP_CMP_GE = 12
OP_CMP_EQ = 13
OP_CMP_NE = 14
OP_AND = 15
OP_OR = 16
OP_NOT = 17
OP_I2I = 18
OP_LOAD = 19
OP_STORE = 20
OP_LDM_SPILL = 21
OP_LDM_GLOBAL = 22
OP_STM_SPILL = 23
OP_STM_GLOBAL = 24
OP_LOADA = 25
OP_ALLOCA = 26
OP_CBR = 27
OP_JMP = 28
OP_PARAM = 29
OP_PRINT = 30
OP_NOP = 31


@dataclass
class DecodedFunction:
    """Dense decoded form of one :class:`FunctionImage`.

    ``code[pc]`` is a flat tuple whose first element is a small-int
    opcode; ``pc_map[pc]`` is the original-code index of that
    instruction; ``regs[i]`` is the :class:`Reg` behind dense register
    index ``i`` (for fault messages).
    """

    name: str
    code: Tuple[tuple, ...]
    pc_map: Tuple[int, ...]
    regs: Tuple[Reg, ...]


def decode_image(image) -> DecodedFunction:
    """Compile one :class:`FunctionImage` into its decoded form."""
    code = list(image.code)

    # Pass 1: strip labels, build decoded<->original pc maps.
    originals: List[Instr] = []
    pc_map: List[int] = []
    dec_of_orig: Dict[int, int] = {}
    for index, instr in enumerate(code):
        if instr.op is not Op.LABEL:
            dec_of_orig[index] = len(originals)
            pc_map.append(index)
            originals.append(instr)
    n_decoded = len(originals)

    # orig_to_dec[i]: decoded pc of the first non-label at or after i.
    orig_to_dec = [n_decoded] * (len(code) + 1)
    following = n_decoded
    for index in range(len(code) - 1, -1, -1):
        if code[index].op is not Op.LABEL:
            following = dec_of_orig[index]
        orig_to_dec[index] = following

    def target(label_name: str) -> int:
        return orig_to_dec[image.labels[label_name]]

    # Pass 2: dense register indices + per-op operand tuples.
    reg_index: Dict[Reg, int] = {}
    regs: List[Reg] = []

    def ri(reg: Reg) -> int:
        index = reg_index.get(reg)
        if index is None:
            index = reg_index[reg] = len(regs)
            regs.append(reg)
        return index

    def ri_opt(reg: Optional[Reg]) -> Optional[int]:
        return None if reg is None else ri(reg)

    decoded: List[tuple] = []
    for instr in originals:
        op = instr.op
        if op in _BINARY_CODE:
            decoded.append(
                (_BINARY_CODE[op], ri(instr.dst), ri(instr.srcs[0]), ri(instr.srcs[1]))
            )
        elif op is Op.LOADI:
            decoded.append((OP_LOADI, ri(instr.dst), instr.imm))
        elif op is Op.NEG:
            decoded.append((OP_NEG, ri(instr.dst), ri(instr.srcs[0])))
        elif op is Op.NOT:
            decoded.append((OP_NOT, ri(instr.dst), ri(instr.srcs[0])))
        elif op is Op.I2I:
            decoded.append((OP_I2I, ri(instr.dst), ri(instr.srcs[0])))
        elif op is Op.LOAD:
            decoded.append((OP_LOAD, ri(instr.dst), ri(instr.srcs[0])))
        elif op is Op.STORE:
            decoded.append((OP_STORE, ri(instr.srcs[0]), ri(instr.srcs[1])))
        elif op is Op.LDM:
            kind = OP_LDM_SPILL if instr.addr.space == "spill" else OP_LDM_GLOBAL
            decoded.append((kind, ri(instr.dst), instr.addr.name))
        elif op is Op.STM:
            kind = OP_STM_SPILL if instr.addr.space == "spill" else OP_STM_GLOBAL
            decoded.append((kind, instr.addr.name, ri(instr.srcs[0])))
        elif op is Op.LOADA:
            decoded.append((OP_LOADA, ri(instr.dst), instr.addr.name))
        elif op is Op.ALLOCA:
            decoded.append((OP_ALLOCA, ri(instr.dst), int(instr.imm)))
        elif op is Op.CBR:
            decoded.append(
                (OP_CBR, ri(instr.srcs[0]), target(instr.label), target(instr.label_false))
            )
        elif op is Op.JMP:
            decoded.append((OP_JMP, target(instr.label)))
        elif op is Op.PARAM:
            decoded.append((OP_PARAM, ri(instr.srcs[0])))
        elif op is Op.CALL:
            decoded.append((OP_CALL, instr.callee, ri_opt(instr.dst)))
        elif op is Op.RET:
            decoded.append((OP_RET, ri(instr.srcs[0]) if instr.srcs else None))
        elif op is Op.PRINT:
            decoded.append((OP_PRINT, ri(instr.srcs[0])))
        elif op is Op.NOP:
            decoded.append((OP_NOP,))
        else:
            raise ValueError(f"cannot decode {instr}")

    return DecodedFunction(
        name=image.name,
        code=tuple(decoded),
        pc_map=tuple(pc_map),
        regs=tuple(regs),
    )


_BINARY_CODE = {
    Op.ADD: OP_ADD,
    Op.SUB: OP_SUB,
    Op.MUL: OP_MUL,
    Op.DIV: OP_DIV,
    Op.MOD: OP_MOD,
    Op.CMP_LT: OP_CMP_LT,
    Op.CMP_LE: OP_CMP_LE,
    Op.CMP_GT: OP_CMP_GT,
    Op.CMP_GE: OP_CMP_GE,
    Op.CMP_EQ: OP_CMP_EQ,
    Op.CMP_NE: OP_CMP_NE,
    Op.AND: OP_AND,
    Op.OR: OP_OR,
}
