"""Dataflow verification of spill-slot discipline.

DESIGN.md invariant: *spill insertion leaves every load preceded (on every
path) by a store of the same spill slot* — otherwise a ``ldm`` could read
an uninitialized slot.  This module checks that with a forward
must-analysis over the CFG: a slot is *definitely initialized* at a point
if every path from entry passes a ``stm`` of it (incoming-argument slots
are initialized by the calling convention).

Both allocators' outputs are checked by the test suite; the benchmark
harness can run it too.  Violations found here were the early smoke
signals for the hierarchical spill patch-up logic.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..cfg.graph import CFG
from .iloc import Instr, Op


class SpillSlotError(AssertionError):
    """A ``ldm`` can read a spill slot before any ``stm`` wrote it."""


def spill_slots_used(code: Sequence[Instr]) -> Set[str]:
    """All spill-space slot names referenced by the code."""
    out: Set[str] = set()
    for instr in code:
        if instr.op in (Op.LDM, Op.STM) and instr.addr is not None:
            if instr.addr.space == "spill":
                out.add(instr.addr.name)
    return out


def check_spill_discipline(
    code: Sequence[Instr], initialized: Sequence[str] = ()
) -> None:
    """Raise :class:`SpillSlotError` if some path reaches a spill-slot load
    before any store of that slot.

    ``initialized`` lists slots that are written before entry (the
    incoming-argument slots).  The check is a may-read-uninitialized
    analysis: conservative in the safe direction (a reported violation is
    a genuine path in the CFG, though that path may be infeasible at
    runtime — callers with such patterns can whitelist slots).
    """
    slots = sorted(spill_slots_used(code) - set(initialized))
    if not slots:
        return
    cfg = CFG(code)
    index_of = {name: i for i, name in enumerate(slots)}
    n = len(slots)
    full = (1 << n) - 1

    # Forward must-analysis: bit set = slot definitely stored.
    in_sets: List[int] = [full] * len(cfg.blocks)
    entry = cfg.entry_block().index
    in_sets[entry] = 0

    gen: List[int] = [0] * len(cfg.blocks)
    for block in cfg.blocks:
        bits = 0
        for i in block.instr_indices():
            instr = code[i]
            if (
                instr.op is Op.STM
                and instr.addr is not None
                and instr.addr.name in index_of
            ):
                bits |= 1 << index_of[instr.addr.name]
        gen[block.index] = bits

    changed = True
    order = cfg.reverse_postorder()
    while changed:
        changed = False
        for block in order:
            if block.index == entry:
                acc = 0
            else:
                acc = full
                for pred in block.preds:
                    acc &= in_sets[pred.index] | gen[pred.index]
                if not block.preds:
                    acc = 0  # unreachable: treat as uninitialized
            if acc != in_sets[block.index]:
                in_sets[block.index] = acc
                changed = True

    # Walk each block checking loads against the running must-set.
    for block in cfg.blocks:
        bits = in_sets[block.index]
        for i in block.instr_indices():
            instr = code[i]
            if instr.addr is None or instr.addr.name not in index_of:
                continue
            bit = 1 << index_of[instr.addr.name]
            if instr.op is Op.LDM and not bits & bit:
                raise SpillSlotError(
                    f"load of spill slot {instr.addr.name!r} at linear "
                    f"position {i} may precede every store of it"
                )
            if instr.op is Op.STM:
                bits |= bit
