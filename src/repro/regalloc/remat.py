"""Rematerialization — the paper's second excluded extension.

§4: "No coalescing or rematerialization is done [14, 11]" (reference [11]
is Briggs/Cooper/Torczon, *Rematerialization*, PLDI 1992).  The idea: a
spill candidate whose value can be recomputed in one instruction should be
*recomputed at each use* instead of being stored to and loaded from a
spill slot — the stores disappear entirely and each reload becomes a
``loadI``.

Scope here (classic "never-killed constant" rematerialization): a virtual
register is rematerializable when every definition makes it the same
constant, directly (``loadI c``) or through copies of constant registers.
A small constant-propagation fixpoint discovers these.

Both allocators accept ``remat=True``: rematerializable spill victims are
rewritten (defs deleted, each use fed by a fresh ``loadI`` temporary) and
never touch memory; everything else spills normally.  The ablation
benchmark measures the effect — in the paper's 1-cycle model the win is
the removed stores plus shorter live ranges.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..ir.iloc import Instr, Op, Reg
from ..pdg.graph import PDGFunction
from ..pdg.nodes import Predicate, Region

Number = Union[int, float]

#: Lattice: None = no information yet (bottom); a Number = that constant;
#: _TOP = conflicting definitions (not constant).
_TOP = object()


def constant_registers(instrs: Iterable[Instr]) -> Dict[Reg, Number]:
    """Registers whose every definition yields one known constant.

    A definition contributes ``loadI c`` directly or ``i2i s`` where ``s``
    is itself constant; any other defining opcode makes the register
    non-constant.  Iterates to a fixpoint so copy chains resolve in any
    order.
    """
    instr_list = list(instrs)
    value: Dict[Reg, object] = {}

    def merge(reg: Reg, new: object) -> bool:
        old = value.get(reg)
        if old is _TOP:
            return False
        if new is _TOP:
            value[reg] = _TOP
            return old is not _TOP
        if old is None:
            value[reg] = new
            return True
        if old == new and type(old) is type(new):
            return False
        value[reg] = _TOP
        return True

    changed = True
    while changed:
        changed = False
        for instr in instr_list:
            if instr.dst is None:
                continue
            if instr.op is Op.LOADI:
                changed |= merge(instr.dst, instr.imm)
            elif instr.op is Op.I2I:
                src_value = value.get(instr.srcs[0])
                if src_value is None:
                    continue  # wait for the source to resolve
                changed |= merge(instr.dst, src_value)
            else:
                changed |= merge(instr.dst, _TOP)
    return {
        reg: val  # type: ignore[misc]
        for reg, val in value.items()
        if val is not _TOP and val is not None
    }


# ----------------------------------------------------------------------------
# Linear code (GRA)
# ----------------------------------------------------------------------------


def rematerialize_linear(
    code: List[Instr],
    victim: Reg,
    constant: Number,
    new_vreg: Callable[[], Reg],
) -> Tuple[List[Instr], Set[Reg]]:
    """Replace every use of ``victim`` with a freshly loaded constant and
    delete its definitions.  Returns the new code and the temporaries."""
    out: List[Instr] = []
    temps: Set[Reg] = set()
    for instr in code:
        if victim in instr.defs:
            # The whole definition is dead: loadI/i2i have no side effect.
            continue
        if victim in instr.uses:
            temp = new_vreg()
            temps.add(temp)
            out.append(Instr(Op.LOADI, imm=constant, dst=temp))
            instr.rewrite_regs({victim: temp})
        out.append(instr)
    return out, temps


#: Opcodes with no side effect: a definition by one of these whose result
#: is never read can be deleted outright.
_PURE_OPS = {
    Op.LOADI,
    Op.I2I,
    Op.ADD,
    Op.SUB,
    Op.MUL,
    Op.NEG,
    Op.CMP_LT,
    Op.CMP_LE,
    Op.CMP_GT,
    Op.CMP_GE,
    Op.CMP_EQ,
    Op.CMP_NE,
    Op.AND,
    Op.OR,
    Op.NOT,
    Op.LOADA,
}


def sweep_dead_defs_linear(code: List[Instr]) -> List[Instr]:
    """Remove pure definitions whose results are never used (iterated).

    Rematerializing a copy target typically leaves the copy's source
    ``loadI`` dead; this sweep reclaims those cycles.  Division is *not*
    treated as pure (it can fault), matching the interpreter.
    """
    while True:
        used: Set[Reg] = set()
        for instr in code:
            used.update(instr.uses)
        kept = [
            instr
            for instr in code
            if not (
                instr.op in _PURE_OPS
                and instr.dst is not None
                and instr.dst not in used
            )
        ]
        if len(kept) == len(code):
            return kept
        code = kept


def sweep_dead_defs_pdg(func: PDGFunction) -> int:
    """The PDG-side dead-definition sweep; returns instructions removed."""
    removed = 0
    while True:
        used: Set[Reg] = set()
        for instr in func.walk_instrs():
            used.update(instr.uses)
        change = 0
        for region in func.walk_regions():
            kept = []
            for item in region.items:
                if (
                    isinstance(item, Instr)
                    and item.op in _PURE_OPS
                    and item.dst is not None
                    and item.dst not in used
                ):
                    change += 1
                    continue
                kept.append(item)
            region.items = kept
        removed += change
        if not change:
            if removed:
                func.bump_version()
            return removed


# ----------------------------------------------------------------------------
# PDG (RAP)
# ----------------------------------------------------------------------------


def rematerialize_pdg(
    func: PDGFunction, victim: Reg, constant: Number
) -> Set[Reg]:
    """The PDG-side equivalent: rewrite every region in place."""
    temps: Set[Reg] = set()
    for region in func.walk_regions():
        new_items: List = []
        for item in region.items:
            if isinstance(item, Instr):
                if victim in item.defs:
                    continue
                if victim in item.uses:
                    temp = func.new_vreg()
                    temps.add(temp)
                    new_items.append(Instr(Op.LOADI, imm=constant, dst=temp))
                    item.rewrite_regs({victim: temp})
                new_items.append(item)
            else:
                if isinstance(item, Predicate) and victim in item.branch.uses:
                    temp = func.new_vreg()
                    temps.add(temp)
                    new_items.append(Instr(Op.LOADI, imm=constant, dst=temp))
                    item.branch.rewrite_regs({victim: temp})
                new_items.append(item)
        region.items = new_items
    func.bump_version()
    return temps
