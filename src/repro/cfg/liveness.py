"""Iterative live-variable analysis over the CFG.

Produces both block-level live-in/live-out and a *per-position* view:
``live_at[i]`` is the set of registers live immediately before executing
``code[i]`` (with ``live_at[len(code)]`` empty).  Because linearization
shares instruction objects with the PDG, querying by linear position gives
RAP its per-region live sets directly.

The block-level sets are solved eagerly; the per-position sets of a block
are derived on the first query that lands in it, so a consumer that only
asks about one region pays for that region's blocks.
:func:`update_liveness` re-solves only the registers whose references
changed, reusing every other register's block-level facts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..ir.iloc import Instr, Reg
from .graph import CFG, BasicBlock


class LivenessResult:
    """Liveness facts for one linear function body."""

    def __init__(
        self, cfg: CFG, block_live_in: List[Set[Reg]], block_live_out: List[Set[Reg]]
    ):
        self.cfg = cfg
        self.block_live_in = block_live_in
        self.block_live_out = block_live_out
        #: live set before each position, filled one block at a time;
        #: the final entry (past the last instruction) is always empty.
        self._at: List[Optional[Set[Reg]]] = [None] * len(cfg.code) + [set()]
        self._complete = False
        self._index_of: Optional[Dict[int, int]] = None

    @property
    def live_at(self) -> List[Set[Reg]]:
        """Live set immediately before every position (``len(code) + 1``
        entries, the last one empty)."""
        if not self._complete:
            for block in self.cfg.blocks:
                self._fill(block)
            self._complete = True
        return self._at  # type: ignore[return-value]

    def at(self, index: int) -> Set[Reg]:
        """Registers live immediately before position ``index``."""
        live = self._at[index]
        if live is None:
            self._fill(self.cfg.block_at[index])  # type: ignore[arg-type]
            live = self._at[index]
        return live  # type: ignore[return-value]

    def _fill(self, block: BasicBlock) -> None:
        at = self._at
        if at[block.start] is not None:
            return
        code = self.cfg.code
        live = self.block_live_out[block.index]
        for index in range(block.end - 1, block.start - 1, -1):
            instr = code[index]
            dst = instr.dst
            if dst is None:
                live = live.union(instr.srcs)
            else:
                live = live - {dst}
                live.update(instr.srcs)
            at[index] = live

    def _position(self, instr: Instr) -> int:
        if self._index_of is None:
            code = self.cfg.code
            self._index_of = dict(zip(map(id, code), range(len(code))))
        return self._index_of[id(instr)]

    def live_before(self, instr: Instr) -> Set[Reg]:
        return self.at(self._position(instr))

    def live_after(self, instr: Instr) -> Set[Reg]:
        """Registers live immediately after ``instr``.

        For a branch this is the union over its successors, which is what
        interference construction needs.
        """
        return self.after(self._position(instr))

    def after(self, index: int) -> Set[Reg]:
        """:meth:`live_after` of the instruction at position ``index``."""
        block = self.cfg.block_at[index]
        last = block is not None and index == block.end - 1
        if last and self.cfg.code[index].is_branch:
            return self.block_live_out[block.index]  # type: ignore[union-attr]
        return self.at(index + 1)


def compute_liveness(cfg: CFG) -> LivenessResult:
    """Standard backwards may-analysis, iterated to a fixed point."""
    code = cfg.code
    n_blocks = len(cfg.blocks)

    use: List[Set[Reg]] = [set() for _ in range(n_blocks)]
    defs: List[Set[Reg]] = [set() for _ in range(n_blocks)]
    for block in cfg.blocks:
        for index in block.instr_indices():
            instr = code[index]
            for reg in instr.uses:
                if reg not in defs[block.index]:
                    use[block.index].add(reg)
            for reg in instr.defs:
                defs[block.index].add(reg)

    live_in: List[Set[Reg]] = [set() for _ in range(n_blocks)]
    live_out: List[Set[Reg]] = [set() for _ in range(n_blocks)]

    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for block in reversed(order):
            out: Set[Reg] = set()
            for succ in block.succs:
                out |= live_in[succ.index]
            new_in = use[block.index] | (out - defs[block.index])
            if out != live_out[block.index] or new_in != live_in[block.index]:
                live_out[block.index] = out
                live_in[block.index] = new_in
                changed = True

    return LivenessResult(cfg, live_in, live_out)


def update_liveness(
    previous: LivenessResult, cfg: CFG, positions: Dict[Reg, Iterable[int]]
) -> LivenessResult:
    """Liveness of ``cfg`` given ``previous``, the liveness of the same
    blocks before some registers' references changed.

    ``positions`` maps each changed register to the ascending positions
    of its references in ``cfg.code``.  Only instructions that touch no
    other register may have been inserted (spill ``ldm``/``stm``), so
    ``cfg`` has ``previous.cfg``'s blocks in the same order and every other
    register's block-level facts carry over unchanged.  The result equals
    :func:`compute_liveness` ``(cfg)``: only blocks reachable from the entry
    ever gain a live register.
    """
    if len(cfg.blocks) != len(previous.cfg.blocks):
        raise ValueError("update_liveness: block structure changed")
    code = cfg.code
    block_at = cfg.block_at
    reachable = cfg.reachable()
    gained_in: Dict[int, Set[Reg]] = {}
    gained_out: Dict[int, Set[Reg]] = {}
    for reg, where in positions.items():
        exposed: Set[int] = set()
        killed: Set[int] = set()
        for index in where:
            block = block_at[index].index  # type: ignore[union-attr]
            instr = code[index]
            if block not in killed and reg in instr.srcs:
                exposed.add(block)
            if instr.dst == reg:
                killed.add(block)
        live_blocks = exposed & reachable
        work = list(live_blocks)
        while work:
            block = cfg.blocks[work.pop()]
            for pred in block.preds:
                index = pred.index
                if index not in reachable:
                    continue
                gained_out.setdefault(index, set()).add(reg)
                if index not in killed and index not in live_blocks:
                    live_blocks.add(index)
                    work.append(index)
        for index in live_blocks:
            gained_in.setdefault(index, set()).add(reg)

    changed = set(positions)
    live_in = list(previous.block_live_in)
    live_out = list(previous.block_live_out)
    for sets, gained in ((live_in, gained_in), (live_out, gained_out)):
        for index, old in enumerate(sets):
            new = gained.get(index)
            if new is not None:
                sets[index] = (old - changed) | new
            elif not old.isdisjoint(changed):
                sets[index] = old - changed
    return LivenessResult(cfg, live_in, live_out)
