"""Spill code insertion for the GRA baseline (linear code).

The target is a load/store architecture, so "spill code insertion consists
of inserting loads immediately before variable uses and stores immediately
after variable definitions" (§1).  Each reference gets a fresh temporary
virtual register, producing the tiny live ranges that make the next
coloring round converge; the temporaries are marked unspillable
(infinite cost), as is standard for Chaitin-style allocators.

Parameters need no special case: their incoming values sit in memory
already, and the prologue ``ldm`` that loads one is an ordinary definition
that gets a store after it like any other when its register is spilled.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

from ..ir.iloc import Instr, Reg, Symbol, ldm, stm


def spill_linear(
    code: List[Instr],
    victims: Iterable[Reg],
    new_vreg: Callable[[], Reg],
    slot_name: Callable[[Reg], str],
    load_slot_name: Optional[Callable[[Reg], str]] = None,
) -> Tuple[List[Instr], Set[Reg]]:
    """Rewrite ``code`` spilling every register in ``victims``.

    Returns the new instruction list and the set of temporaries created
    (which the caller must mark unspillable).  ``load_slot_name``
    defaults to ``slot_name``; it exists so the fault-injection layer can
    desynchronize load slots from store slots (a deliberate slot-naming
    bug the validators must catch).
    """
    victims = set(victims)
    temps: Set[Reg] = set()
    out: List[Instr] = []
    if load_slot_name is None:
        load_slot_name = slot_name

    for instr in code:
        used = [reg for reg in instr.uses if reg in victims]
        defined = [reg for reg in instr.defs if reg in victims]
        if not used and not defined:
            out.append(instr)
            continue
        mapping = {}
        for reg in dict.fromkeys(used + defined):
            temp = new_vreg()
            temps.add(temp)
            mapping[reg] = temp
        for reg in dict.fromkeys(used):
            out.append(ldm(Symbol(load_slot_name(reg)), mapping[reg]))
        instr.rewrite_regs(mapping)
        out.append(instr)
        for reg in dict.fromkeys(defined):
            out.append(stm(Symbol(slot_name(reg)), mapping[reg]))
    return out, temps
