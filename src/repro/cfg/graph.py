"""Control-flow graph over linear iloc code.

Used by the GRA baseline (which, like Chaitin's allocator, works from a
CFG) and — via the linearize-then-analyze trick described in
:mod:`repro.pdg.linearize` — by RAP's per-region dataflow queries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set

from ..ir.iloc import Instr, Op


class BasicBlock:
    """A maximal straight-line sequence ``code[start:end]``."""

    __slots__ = ("index", "start", "end", "succs", "preds")

    def __init__(self, index: int, start: int, end: int):
        self.index = index
        self.start = start
        self.end = end
        self.succs: List[BasicBlock] = []
        self.preds: List[BasicBlock] = []

    def instr_indices(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BB{self.index} [{self.start}:{self.end})>"


class CFG:
    """Basic blocks plus the block index of every linear position."""

    def __init__(self, code: Sequence[Instr]):
        self.code = code
        self.blocks: List[BasicBlock] = []
        #: block containing each linear position (None for unreachable gaps
        #: never occurs: every position belongs to exactly one block).
        self.block_at: List[Optional[BasicBlock]] = []
        self._rpo: Optional[List[BasicBlock]] = None
        self._reachable: Optional[Set[int]] = None
        self._build()

    @classmethod
    def with_insertions(
        cls, previous: "CFG", code: Sequence[Instr], gaps: Sequence[int]
    ) -> Optional["CFG"]:
        """The CFG of ``code``: ``previous.code`` with one non-branch,
        non-label instruction inserted before each old position in
        ``gaps`` (ascending, repeats allowed).

        An instruction inserted before a label joins the block of the
        instruction before it, so such insertions keep every block and
        edge and only move block boundaries.  One that would lead a block
        (at the very start, or right after a branch) changes the leaders;
        then None is returned and the caller builds a fresh CFG.
        """
        old = previous.code
        starts: List[int] = []
        for block in previous.blocks:
            start = block.start
            before = bisect_left(gaps, start)
            at = bisect_right(gaps, start) - before
            if at and (start == 0 or old[start - 1].is_branch):
                return None
            starts.append(start + before + at)
        cfg = cls.__new__(cls)
        cfg.code = code
        ends = starts[1:] + [len(code)]
        cfg.blocks = [
            BasicBlock(index, start, end)
            for index, (start, end) in enumerate(zip(starts, ends))
        ]
        block_at: List[Optional[BasicBlock]] = []
        for block, old_block in zip(cfg.blocks, previous.blocks):
            block_at.extend([block] * (block.end - block.start))
            block.succs = [cfg.blocks[succ.index] for succ in old_block.succs]
            block.preds = [cfg.blocks[pred.index] for pred in old_block.preds]
        cfg.block_at = block_at
        cfg._rpo = [cfg.blocks[block.index] for block in previous.reverse_postorder()]
        cfg._reachable = previous.reachable()
        return cfg

    def entry_block(self) -> BasicBlock:
        return self.blocks[0]

    def _build(self) -> None:
        code = self.code
        n = len(code)
        leaders = {0}
        label_pos: Dict[str, int] = {}
        for index, instr in enumerate(code):
            if instr.op is Op.LABEL:
                leaders.add(index)
                label_pos[instr.label] = index
            elif instr.is_branch and index + 1 < n:
                leaders.add(index + 1)

        ordered = sorted(leaders)
        starts = {start: bi for bi, start in enumerate(ordered)}
        for bi, start in enumerate(ordered):
            end = ordered[bi + 1] if bi + 1 < len(ordered) else n
            self.blocks.append(BasicBlock(bi, start, end))

        block_at: List[Optional[BasicBlock]] = []
        for block in self.blocks:
            block_at.extend([block] * (block.end - block.start))
        self.block_at = block_at

        def block_of_label(label: str) -> BasicBlock:
            return self.block_at[label_pos[label]]  # type: ignore[return-value]

        for block in self.blocks:
            if block.end == 0:
                continue
            last = code[block.end - 1] if block.end > block.start else None
            succ_blocks: List[BasicBlock] = []
            if last is None or not last.is_branch:
                if block.end < n:
                    succ_blocks.append(self.block_at[block.end])  # type: ignore[arg-type]
            elif last.op is Op.JMP:
                succ_blocks.append(block_of_label(last.label))
            elif last.op is Op.CBR:
                succ_blocks.append(block_of_label(last.label))
                false_block = block_of_label(last.label_false)
                if false_block is not succ_blocks[0]:
                    succ_blocks.append(false_block)
            # RET: no successors.
            block.succs = succ_blocks
            for succ in succ_blocks:
                succ.preds.append(block)

    def reverse_postorder(self) -> List[BasicBlock]:
        """Blocks in reverse post-order from the entry block.

        Computed once: the block structure never changes after
        :meth:`_build`, so every call returns the same (shared, not to be
        mutated) list.
        """
        if self._rpo is None:
            self._rpo = self._compute_reverse_postorder()
        return self._rpo

    def reachable(self) -> Set[int]:
        """Indices of the blocks reachable from the entry block (computed
        once; shared, not to be mutated)."""
        if self._reachable is None:
            self._reachable = {block.index for block in self.reverse_postorder()}
        return self._reachable

    def _compute_reverse_postorder(self) -> List[BasicBlock]:
        seen = set()
        order: List[BasicBlock] = []

        def visit(block: BasicBlock) -> None:
            stack = [(block, iter(block.succs))]
            seen.add(block.index)
            while stack:
                current, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ.index not in seen:
                        seen.add(succ.index)
                        stack.append((succ, iter(succ.succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry_block())
        order.reverse()
        return order
