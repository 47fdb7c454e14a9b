"""Global redundant load/store elimination — the paper's last future-work
item, generalizing the Figure 6 peephole across basic blocks.

§4 / Conclusions: "RAP currently attempts to move spill code out of loop
regions, but moving spill code out of any subregion is also likely to
reduce the amount of spill code executed."  The effect the authors are
after — one load where sibling regions each issued one — is exactly
*partial redundancy* of direct loads, so we implement it as a forward
must-availability dataflow over the whole CFG:

* a fact ``slot -> (reg, synced)`` means "on **every** path to this point,
  register ``reg`` holds the current value of ``slot``" (and, if
  ``synced``, memory already equals the register, making a store dead);
* the meet is intersection with agreement (same holder register on all
  predecessors); block transfer is the peephole's value tracking;
* at a ``ldm r, S`` with an available fact: delete (same register) or
  rewrite to a copy (different register); at a ``stm S, r`` with a synced
  fact for ``r``: delete.

Calls kill global-space facts (never activation-private spill slots);
heap ``store`` cannot touch symbolic slots.  Deleting a load/store never
invalidates the analysis (the facts it generated are already available),
so one pass per fixpoint round suffices; the driver iterates until no
rewrite fires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...cfg.graph import CFG
from ...ir.iloc import Instr, Op, Reg, Symbol, copy as copy_instr
from .peephole import PeepholeReport

#: A fact value: (holder register, memory-synced flag).
Fact = Tuple[Reg, bool]
#: Lattice top for a whole block-in state (unknown, pre-fixpoint).
_TOP = None

MAX_ROUNDS = 10


def _transfer(state: Dict[Symbol, Fact], instr: Instr) -> None:
    """Apply one instruction to a fact state (in place)."""
    op = instr.op

    def kill_register(reg: Reg) -> None:
        for addr in [a for a, (r, _) in state.items() if r == reg]:
            del state[addr]

    if op is Op.LDM:
        kill_register(instr.dst)
        state[instr.addr] = (instr.dst, True)
        return
    if op is Op.STM:
        state[instr.addr] = (instr.srcs[0], True)
        return
    if op is Op.CALL:
        for addr in [a for a in state if a.space == "global"]:
            del state[addr]
    if op is Op.I2I:
        # The copy's destination mirrors whatever its source mirrors.
        src_facts = [
            (addr, fact) for addr, fact in state.items() if fact[0] == instr.srcs[0]
        ]
        kill_register(instr.dst)
        # Keep at most one mirror via the copy (deterministic: first addr).
        for addr, (reg, synced) in sorted(src_facts, key=lambda x: x[0].name)[:1]:
            state[addr] = (instr.dst, synced)
        return
    for reg in instr.defs:
        kill_register(reg)


def _meet(states: List[Optional[Dict[Symbol, Fact]]]) -> Dict[Symbol, Fact]:
    known = [s for s in states if s is not _TOP]
    if not known:
        return {}
    result = dict(known[0])
    for other in known[1:]:
        for addr in list(result):
            fact = other.get(addr)
            if fact is None or fact[0] != result[addr][0]:
                del result[addr]
            elif not fact[1]:
                result[addr] = (result[addr][0], False)
    return result


def eliminate_redundant_mem_ops_global(
    code: List[Instr],
) -> Tuple[List[Instr], PeepholeReport]:
    """One whole-function availability pass; apply until a fixpoint."""
    report = PeepholeReport()
    for _ in range(MAX_ROUNDS):
        code, changed = _one_round(code, report)
        if not changed:
            break
    return code, report


def _one_round(
    code: List[Instr], report: PeepholeReport
) -> Tuple[List[Instr], bool]:
    cfg = CFG(code)
    n = len(cfg.blocks)
    entry = cfg.entry_block().index
    #: optimistic initialization (TOP = "all facts"); the meet skips TOP
    #: predecessors, so facts shrink monotonically to the fixpoint.
    block_out: List[Optional[Dict[Symbol, Fact]]] = [_TOP] * n
    block_in: List[Dict[Symbol, Fact]] = [{} for _ in range(n)]

    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for block in order:
            if block.index == entry:
                in_state: Dict[Symbol, Fact] = {}
            else:
                in_state = _meet([block_out[p.index] for p in block.preds])
            block_in[block.index] = in_state
            state = dict(in_state)
            for index in block.instr_indices():
                _transfer(state, code[index])
            if block_out[block.index] != state:
                block_out[block.index] = state
                changed = True

    # Rewrite using the converged in-states.
    out: List[Instr] = []
    rewrote = False
    for block in cfg.blocks:
        state = dict(block_in[block.index] or {})
        for index in block.instr_indices():
            instr = code[index]
            if instr.op is Op.LDM:
                fact = state.get(instr.addr)
                if fact is not None:
                    holder, _ = fact
                    if holder == instr.dst:
                        report.loads_deleted += 1
                        rewrote = True
                        continue
                    replacement = copy_instr(holder, instr.dst)
                    report.loads_to_copies += 1
                    rewrote = True
                    _transfer(state, replacement)
                    out.append(replacement)
                    continue
            elif instr.op is Op.STM:
                fact = state.get(instr.addr)
                if fact is not None and fact == (instr.srcs[0], True):
                    report.stores_deleted += 1
                    rewrote = True
                    continue
            _transfer(state, instr)
            out.append(instr)
    return out, rewrote
