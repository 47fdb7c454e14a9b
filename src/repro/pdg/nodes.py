"""Node types of the Program Dependence Graph.

Our PDG mirrors the structure produced by ``pdgcc`` (the paper's front
end): a hierarchy of *region nodes*, where each region node groups the
program parts executed under the same control conditions, with *predicate
nodes* introducing new control conditions.  Low-level iloc statements are
attached directly to region nodes ("the input to the RAP register
allocator consists of the PDG with attached low-level intermediate code
statements", §3).

A region node's ``items`` list is the ordered sequence of things executed
under that region's control condition.  An item is one of:

* an :class:`~repro.ir.iloc.Instr` — a directly attached iloc statement
  (this is the "intermediate code of the parent region" that
  ``add_region_conflicts`` scans);
* a child :class:`Region` — a *subregion*;
* a :class:`Predicate` — a condition test whose true/false subregions
  execute under a refined control condition.

Loops are regions with ``is_loop=True``: the loop region's items (condition
code plus the predicate guarding the body subregion) execute once per
iteration, exactly like region ``R2`` in the paper's Figure 1.

Statement-level granularity: by default every Mini-C source statement
receives its own region node, reproducing the pdgcc property that §3.3 of
the paper identifies as the cause of both RAP's copy-elimination win and
its spill-code excess (Figure 7).
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Set, Union

from ..ir.iloc import Instr, Op, Reg

_next_region_id = itertools.count(1)


class Predicate:
    """A predicate node: tests ``cond`` and transfers control to one of two
    subregions.

    The persistent ``branch`` instruction (a ``cbr``) is what the
    linearizer emits for this predicate; keeping one identity-stable
    instruction object lets dataflow results computed on linear code be
    queried per PDG node.
    """

    __slots__ = ("true_region", "false_region", "branch")

    def __init__(
        self,
        cond: Reg,
        true_region: Optional["Region"] = None,
        false_region: Optional["Region"] = None,
    ):
        self.true_region = true_region
        self.false_region = false_region
        self.branch = Instr(Op.CBR, srcs=[cond])

    @property
    def cond(self) -> Reg:
        """The tested register (kept in the branch so register rewrites and
        spill renaming can never desynchronize the two)."""
        return self.branch.srcs[0]

    def regions(self) -> List["Region"]:
        out = []
        if self.true_region is not None:
            out.append(self.true_region)
        if self.false_region is not None:
            out.append(self.false_region)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Predicate {self.branch.srcs[0]}>"


Item = Union[Instr, "Region", Predicate]


class Region:
    """A region node and (implicitly, via ``items``) the region below it.

    Terminology from the paper, §3.1: "A *region* refers to a region node
    in the PDG and all of its control dependence successors.  The *parent
    region* refers to only the topmost region node of the region.  A
    *subregion* of the parent region refers to a subregion node and all of
    its control dependence successors."

    Correspondingly, :meth:`direct_instrs` is the intermediate code of the
    parent region, :meth:`subregions` are the child region nodes, and
    :meth:`walk_instrs` is the code of the whole region.
    """

    __slots__ = ("id", "kind", "is_loop", "items", "note")

    def __init__(self, kind: str = "block", is_loop: bool = False, note: str = ""):
        self.id = next(_next_region_id)
        self.kind = kind
        self.is_loop = is_loop
        self.items: List[Item] = []
        self.note = note

    @property
    def name(self) -> str:
        return f"R{self.id}"

    # -- structure queries ----------------------------------------------------

    def direct_instrs(self) -> List[Instr]:
        """Iloc statements attached directly to this region node, in order.

        A predicate contributes its branch instruction (the test itself is
        executed under this region's control condition).
        """
        out: List[Instr] = []
        for item in self.items:
            if isinstance(item, Instr):
                out.append(item)
            elif isinstance(item, Predicate):
                out.append(item.branch)
        return out

    def subregions(self) -> List["Region"]:
        """Immediate child region nodes (including predicate branches)."""
        out: List[Region] = []
        for item in self.items:
            if isinstance(item, Region):
                out.append(item)
            elif isinstance(item, Predicate):
                out.extend(item.regions())
        return out

    def walk_regions(self) -> Iterator["Region"]:
        """This region and every descendant region node, pre-order."""
        yield self
        for sub in self.subregions():
            yield from sub.walk_regions()

    def walk_instrs(self) -> Iterator[Instr]:
        """Every iloc statement in the whole region, in execution order.

        Iterative (explicit iterator stack) rather than ``yield from``
        recursion: this is the allocator's innermost traversal, and the
        recursive form pays one generator resume per nesting level per
        yielded instruction.
        """
        stack = [iter(self.items)]
        while stack:
            pushed = False
            for item in stack[-1]:
                if isinstance(item, Instr):
                    yield item
                elif isinstance(item, Predicate):
                    yield item.branch
                    false_region = item.false_region
                    if false_region is not None:
                        stack.append(iter(false_region.items))
                    true_region = item.true_region
                    if true_region is not None:
                        stack.append(iter(true_region.items))
                    if true_region is not None or false_region is not None:
                        pushed = True
                        break
                else:
                    stack.append(iter(item.items))
                    pushed = True
                    break
            if not pushed:
                stack.pop()

    def referenced_regs(self) -> Set[Reg]:
        """All registers used or defined anywhere in the region."""
        out: Set[Reg] = set()
        for instr in self.walk_instrs():
            out.update(instr.regs())
        return out

    def direct_referenced_regs(self) -> Set[Reg]:
        """Registers referenced by the parent region's own code only."""
        out: Set[Reg] = set()
        for instr in self.direct_instrs():
            out.update(instr.regs())
        return out

    # -- structure edits --------------------------------------------------------

    def index_of(self, item: Item) -> int:
        for position, existing in enumerate(self.items):
            if existing is item:
                return position
        raise ValueError(f"{item!r} is not an item of {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavor = "loop " if self.is_loop else ""
        return f"<{flavor}Region {self.name} {self.kind} items={len(self.items)}>"
