"""Reaching definitions for a single register.

RAP's spill-code insertion (§3.1.4 of the paper) must place stores after
definitions *outside* the spilled region that feed loads inside it, and
loads before uses *outside* the region whose definitions were renamed
inside it.  That requires ud/du chains for the one register being
spilled; this module computes them cheaply per register instead of a full
all-registers bit-vector analysis.

Function parameters need no special case: the builder gives each one a
real definition, the entry prologue's ``ldm`` from its argument slot.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..ir.iloc import Instr, Reg
from .graph import CFG


class RegChains:
    """ud/du chains of one register over one linear function body."""

    def __init__(self, reg: Reg):
        self.reg = reg
        #: use instruction id -> set of reaching definitions
        self.ud: Dict[int, Set[Instr]] = {}
        self._use_instrs: Dict[int, Instr] = {}
        #: def instruction id -> set of reached use instruction ids
        self.du: Dict[int, Set[int]] = {}
        self._def_instrs: Dict[int, Instr] = {}

    def defs_reaching(self, use: Instr) -> Set[Instr]:
        return self.ud.get(id(use), set())

    def uses_reached_by(self, definition: Instr) -> List[Instr]:
        return [self._use_instrs[uid] for uid in self.du.get(id(definition), set())]

    def all_uses(self) -> List[Instr]:
        return list(self._use_instrs.values())

    def all_defs(self) -> List[Instr]:
        return list(self._def_instrs.values())


def chains_for(cfg: CFG, reg: Reg) -> RegChains:
    """Compute ud/du chains of ``reg`` over ``cfg`` (scanning the code for
    its references)."""
    positions = [
        index
        for index, instr in enumerate(cfg.code)
        if instr.dst == reg or reg in instr.srcs
    ]
    return chains_at(cfg, reg, positions)


def chains_at(cfg: CFG, reg: Reg, positions: Sequence[int]) -> RegChains:
    """ud/du chains of ``reg`` given the ascending positions of its
    references in ``cfg.code``; visits only those positions and the
    blocks its definitions reach."""
    code = cfg.code
    block_at = cfg.block_at
    chains = RegChains(reg)

    # One forward pass over the references: each use is reached by the
    # last earlier definition in its block, or else by whatever reaches
    # the block's entry (resolved below); ``gen`` ends as the last
    # definition of each defining block.
    gen: Dict[int, Instr] = {}
    uses: List[tuple] = []
    for index in positions:
        instr = code[index]
        block = block_at[index].index  # type: ignore[union-attr]
        if reg in instr.srcs:
            uses.append((instr, block, gen.get(block)))
        if instr.dst == reg:
            gen[block] = instr
            chains._def_instrs[id(instr)] = instr

    # Forward propagation from the defining blocks.  Like the round-robin
    # fixpoint over the reverse postorder it replaces, only reachable
    # blocks receive definitions (an unreachable block's own definitions
    # still flow into its successors).
    reachable = cfg.reachable()
    reach_in: Dict[int, Set[Instr]] = {}
    work = sorted(gen)
    while work:
        index = work.pop()
        out = {gen[index]} if index in gen else reach_in[index]
        for succ in cfg.blocks[index].succs:
            target = succ.index
            if target not in reachable:
                continue
            into = reach_in.setdefault(target, set())
            if not out <= into:
                into |= out
                if target not in gen:
                    work.append(target)

    for instr, block, local in uses:
        sites = {local} if local is not None else set(reach_in.get(block, ()))
        chains.ud[id(instr)] = sites
        chains._use_instrs[id(instr)] = instr
        for site in sites:
            chains.du.setdefault(id(site), set()).add(id(instr))
    return chains
