"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm)."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .graph import CFG


class DominatorTree:
    """Immediate dominators of every reachable block."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.idom: Dict[int, Optional[int]] = {}
        self._compute()

    def _compute(self) -> None:
        order = self.cfg.reverse_postorder()
        position = {block.index: i for i, block in enumerate(order)}
        entry = self.cfg.entry_block()
        idom: Dict[int, Optional[int]] = {entry.index: entry.index}

        def intersect(a: int, b: int) -> int:
            while a != b:
                while position[a] > position[b]:
                    a = idom[a]  # type: ignore[assignment]
                while position[b] > position[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for block in order:
                if block is entry:
                    continue
                candidates = [
                    pred.index
                    for pred in block.preds
                    if pred.index in idom and pred.index in position
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = intersect(new_idom, other)
                if idom.get(block.index) != new_idom:
                    idom[block.index] = new_idom
                    changed = True
        idom[entry.index] = None
        self.idom = idom

    def dominates(self, a: int, b: int) -> bool:
        """True if block ``a`` dominates block ``b``."""
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False

    def children(self) -> Dict[int, List[int]]:
        """Dominator-tree children of every block, sorted by index (the
        deterministic visit order SSA renaming walks)."""
        out: Dict[int, List[int]] = {index: [] for index in self.idom}
        for index, parent in self.idom.items():
            if parent is not None:
                out[parent].append(index)
        for kids in out.values():
            kids.sort()
        return out


def dominance_frontiers(
    cfg: CFG, dom: Optional[DominatorTree] = None
) -> Dict[int, Set[int]]:
    """Dominance frontier of every reachable block.

    Cooper-Harvey-Kennedy's frontier pass: for each join block (two or
    more predecessors), walk up from each predecessor to the join's
    immediate dominator, adding the join to every block passed.  SSA
    construction places phi nodes at the iterated frontier of each
    variable's definition blocks.
    """
    dom = dom or DominatorTree(cfg)
    frontiers: Dict[int, Set[int]] = {index: set() for index in dom.idom}
    for block in cfg.blocks:
        if block.index not in dom.idom or len(block.preds) < 2:
            continue
        target = dom.idom[block.index]
        for pred in block.preds:
            runner: Optional[int] = pred.index
            while runner is not None and runner != target:
                if runner not in frontiers:
                    break  # unreachable predecessor
                frontiers[runner].add(block.index)
                runner = dom.idom[runner]
    return frontiers


def natural_loops(cfg: CFG) -> List[Dict]:
    """Find natural loops via back edges ``tail -> head`` where head
    dominates tail.  Returns ``[{"header": int, "body": set[int]}]``."""
    dom = DominatorTree(cfg)
    loops: List[Dict] = []
    for block in cfg.blocks:
        for succ in block.succs:
            if dom.dominates(succ.index, block.index):
                body = {succ.index, block.index}
                stack = [block.index]
                while stack:
                    current = stack.pop()
                    if current == succ.index:
                        continue
                    for pred in cfg.blocks[current].preds:
                        if pred.index not in body:
                            body.add(pred.index)
                            stack.append(pred.index)
                loops.append({"header": succ.index, "body": body})
    return loops
