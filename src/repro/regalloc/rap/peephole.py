"""Phase 3 of RAP: basic-block load/store elimination (paper §3.3, Figure 6).

The hierarchical allocator renames a spilled register per subregion; when
several renamed copies land in the same physical register, a basic block
ends up with redundant direct loads and stores.  Figure 6's five patterns
(``ldm r, A`` is a direct load of address A into r; ``stm A, r`` a direct
store):

1. ``ldm r2,A ... ldm r2,A``          → second load deleted
2. ``ldm r2,A ... ldm r3,A``          → second load becomes ``mv r3, r2``
3. ``ldm r2,A ... stm A,r2``          → store deleted
4. ``stm A,r2 ... stm A,r2``          → second store deleted
5. ``stm A,r2 ... ldm r2,A``          → load deleted

all under "no redefinition of the register in between" — plus, in our
implementation, "no other store to A in between" (our symbolic ``ldm``/
``stm`` addresses make both conditions exact, no alias analysis needed).

A single forward pass per basic block tracks, per symbolic address, which
register currently mirrors the memory value; heap ``store`` instructions
cannot touch symbolic slots (disjoint address spaces), and calls clobber
only ``global``-space symbols (spill slots are private to the activation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...ir.iloc import Instr, Op, Reg, Symbol, copy as copy_instr
from ...resilience import faults


@dataclass
class PeepholeReport:
    """Counts of rewrites applied (per Figure 6 pattern family)."""

    loads_deleted: int = 0
    loads_to_copies: int = 0
    stores_deleted: int = 0

    @property
    def total(self) -> int:
        return self.loads_deleted + self.loads_to_copies + self.stores_deleted


def eliminate_redundant_mem_ops(
    code: List[Instr],
    function: str = "?",
) -> Tuple[List[Instr], PeepholeReport]:
    """Apply Figure 6 within each basic block of linear ``code``."""
    report = PeepholeReport()
    out: List[Instr] = []
    #: address -> register currently holding that address's value
    holder: Dict[Symbol, Reg] = {}

    def kill_register(reg: Reg) -> None:
        for addr in [a for a, r in holder.items() if r == reg]:
            del holder[addr]

    for instr in code:
        op = instr.op

        if op is Op.LABEL or instr.is_branch:
            holder.clear()
            out.append(instr)
            continue

        if op is Op.LDM:
            current = holder.get(instr.addr)
            if current is not None:
                if current == instr.dst:
                    report.loads_deleted += 1  # patterns 1 and 5
                    continue
                replacement = copy_instr(current, instr.dst)
                report.loads_to_copies += 1  # pattern 2
                kill_register(replacement.dst)
                holder[instr.addr] = replacement.dst
                out.append(replacement)
                continue
            kill_register(instr.dst)
            holder[instr.addr] = instr.dst
            out.append(instr)
            continue

        if op is Op.STM:
            if holder.get(instr.addr) == instr.srcs[0]:
                report.stores_deleted += 1  # patterns 3 and 4
                continue
            holder[instr.addr] = instr.srcs[0]
            out.append(instr)
            continue

        if op is Op.CALL:
            # A callee may read/write global scalars but can never touch
            # this activation's spill slots.
            for addr in [a for a in holder if a.space == "global"]:
                del holder[addr]

        for defined in instr.defs:
            if (
                faults.active() is not None
                and any(holder.get(a) == defined for a in holder)
                and faults.should_fire("rap.peephole.stale-holder", function)
            ):
                # Injected stale-availability bug: the holder map keeps
                # claiming `defined` mirrors its address after this
                # redefinition, so a later load of that address is
                # wrongly deleted or forwarded.
                continue
            kill_register(defined)
        out.append(instr)
    return out, report
