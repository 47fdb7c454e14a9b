"""Structural verification of a PDG function.

RAP mutates the PDG heavily (spill insertion, renaming, motion's spill
nodes, rematerialization's deletions).  This verifier checks the
structural invariants every transformation must preserve; the test suite
runs it after each phase and the property-based tests run it on every
random program's allocation.

Checked invariants:

* the region hierarchy is a tree: every region and every instruction
  appears exactly once;
* loop regions contain a guard predicate (the linearizer requires it);
* predicate branch instructions are ``cbr`` with exactly one use;
* no instruction object is shared between two positions;
* all register operands are one consistent kind (all-virtual before
  allocation, all-physical after — mixed code is a half-rewritten bug).
"""

from __future__ import annotations

from typing import Optional, Set

from ..ir.iloc import Instr, Op
from .graph import PDGFunction
from .nodes import Predicate, Region


class PDGValidationError(AssertionError):
    """A structural invariant of the PDG is violated."""


def check_pdg(func: PDGFunction, expect_kind: Optional[str] = None) -> None:
    """Verify ``func``'s region tree; ``expect_kind`` is ``"v"``/``"p"``
    to additionally require uniformly virtual/physical operands."""
    seen_regions: Set[int] = set()
    seen_instrs: Set[int] = set()

    def visit_region(region: Region) -> None:
        if id(region) in seen_regions:
            raise PDGValidationError(
                f"region {region.name} appears twice in the hierarchy"
            )
        seen_regions.add(id(region))
        guard_found = False
        for item in region.items:
            if isinstance(item, Instr):
                _visit_instr(item)
            elif isinstance(item, Predicate):
                guard_found = True
                if item.branch.op is not Op.CBR:
                    raise PDGValidationError(
                        f"predicate branch in {region.name} is {item.branch.op}"
                    )
                if len(item.branch.srcs) != 1:
                    raise PDGValidationError(
                        f"predicate in {region.name} must test one register"
                    )
                _visit_instr(item.branch)
                for sub in item.regions():
                    visit_region(sub)
            elif isinstance(item, Region):
                visit_region(item)
            else:
                raise PDGValidationError(
                    f"illegal item {item!r} in {region.name}"
                )
        if region.is_loop and not guard_found:
            raise PDGValidationError(
                f"loop region {region.name} has no guard predicate"
            )

    def _visit_instr(instr: Instr) -> None:
        if id(instr) in seen_instrs:
            raise PDGValidationError(f"instruction {instr} appears twice")
        seen_instrs.add(id(instr))
        if instr.op is Op.LABEL:
            raise PDGValidationError("label pseudo-instructions may not live in a PDG")
        if expect_kind is not None:
            for reg in instr.regs():
                if reg.kind != expect_kind:
                    raise PDGValidationError(
                        f"{instr} mixes register kinds (expected all "
                        f"{expect_kind!r})"
                    )

    visit_region(func.entry)
