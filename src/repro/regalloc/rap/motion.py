"""Phase 2 of RAP: spill-code motion out of loops (paper §3.2).

"After the allocation phase, RAP attempts to move loads and stores outside
of loops which were possibly inserted there because the virtual register
was spilled in another region. ... The spill code movement phase proceeds
in a top down traversal of the PDG so that moving loads and stores outside
of the entire loop nest is attempted before moving the loads and stores
out of inner loops of that nest.  Special spill nodes are created in the
PDG to hold the moved spill code."

Movability condition.  The paper tests "the virtual register was not
combined with another virtual register in the region" against the loop
region's saved interference graph.  We apply the equivalent test at the
physical level, which also covers registers renamed per-subregion during
spilling: all spill traffic of the slot inside the loop targets one
physical register ``r``, and no *other* source register in the loop was
assigned ``r``.  Live-through-but-unreferenced registers can never occupy
``r`` either, thanks to RAP's boundary interference rule, so ``r`` is free
to carry the value across the whole loop.

Transformation.  Hoisting happens only when the loop's *first* interior
access of the slot is a load — the paper's "a load must be inserted in the
spill node immediately prior to the loop if the first reference in the
loop is a use" — which also guarantees the preload reads an initialized
slot (the spill-discipline invariant) and makes the trailing store
zero-trip safe.  Interior ``ldm``/``stm`` of the slot are then deleted,
one preload goes in a spill node before the loop, and a store goes in a
spill node after the loop whenever the loop wrote the slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...ir.iloc import Instr, Op, Reg, Symbol, ldm, preg, stm
from ...pdg.graph import PDGFunction
from ...pdg.nodes import Region
from ...resilience import faults


@dataclass(frozen=True)
class HoistCert:
    """What one hoist claims: loop ``loop_name`` carried ``slot`` in
    physical register ``color`` for the whole loop, and ``had_store``
    says whether a trailing store was required (the loop wrote the slot).
    The independent motion validator recomputes every claim from the
    pre-motion snapshot instead of trusting this record; the certificate
    only tells it *which* hoists to recheck."""

    loop_name: str
    slot: Symbol
    color: int
    had_store: bool


@dataclass
class LoopSpillInfo:
    """Pre-rewrite metadata about one loop region, gathered before virtual
    registers are rewritten to physical ones."""

    loop: Region
    referenced_vregs: Set[Reg]
    #: slot -> spill instructions (ldm/stm) inside the loop's subtree
    slot_instrs: Dict[Symbol, List[Instr]]


@dataclass
class MotionReport:
    """What the motion phase did (used by tests and the ablation bench)."""

    hoisted_slots: List[Tuple[str, Symbol]] = field(default_factory=list)
    #: one certificate per hoist, for the independent motion validator.
    hoists: List[HoistCert] = field(default_factory=list)
    deleted_instrs: int = 0
    inserted_loads: int = 0
    inserted_stores: int = 0


def collect_loop_info(
    func: PDGFunction, spill_slots: Set[Symbol]
) -> List[LoopSpillInfo]:
    """Gather per-loop metadata, outermost loops first (pre-order)."""
    infos: List[LoopSpillInfo] = []
    for region in func.walk_regions():
        if not region.is_loop:
            continue
        slot_instrs: Dict[Symbol, List[Instr]] = {}
        referenced: Set[Reg] = set()
        for instr in region.walk_instrs():
            referenced.update(instr.regs())
            if instr.op in (Op.LDM, Op.STM) and instr.addr in spill_slots:
                slot_instrs.setdefault(instr.addr, []).append(instr)
        infos.append(LoopSpillInfo(region, referenced, slot_instrs))
    return infos


def move_spill_code(
    func: PDGFunction,
    infos: List[LoopSpillInfo],
    assignment: Dict[Reg, int],
    origin_of: Dict[Reg, Reg],
    slot_of_origin: Dict[Reg, Symbol],
    k: Optional[int] = None,
) -> MotionReport:
    """Hoist movable spill code out of loops (runs after the physical
    rewrite, using the pre-rewrite metadata in ``infos``)."""
    report = MotionReport()
    removed: Set[int] = set()

    for info in infos:
        for slot in sorted(info.slot_instrs, key=lambda s: s.name):
            instrs = [
                instr for instr in info.slot_instrs[slot] if id(instr) not in removed
            ]
            if not instrs:
                continue
            family = {
                reg
                for reg in info.referenced_vregs
                if slot_of_origin.get(origin_of.get(reg, reg)) == slot
            }
            if not family:
                continue
            colors = {assignment.get(reg) for reg in family}
            if len(colors) != 1 or None in colors:
                continue
            color = colors.pop()
            intruders = {
                reg
                for reg in info.referenced_vregs
                if assignment.get(reg) == color and reg not in family
            }
            if intruders:
                continue

            had_store = any(instr.op is Op.STM for instr in instrs)
            if instrs[0].op is not Op.LDM:
                # The loop's first access is a store (the value is not
                # live into the loop).  Hoisting would need a zero-trip
                # preload of a slot no store dominates — breaking the
                # spill-slot discipline invariant (every load preceded by
                # a store on all paths) — or an unconditional trailing
                # store of a possibly-uninitialized register.  The paper
                # only hoists a load "if the first reference in the loop
                # is a use"; we mirror that and leave such slots alone.
                continue
            _delete_instrs(info.loop, {id(instr) for instr in instrs})
            removed.update(id(instr) for instr in instrs)
            report.deleted_instrs += len(instrs)

            parent, index = _locate(func, info.loop)
            register = preg(color)
            load_color = color
            if faults.active() is not None and k is not None:
                load_color = faults.maybe_wrong_preg(
                    "rap.motion.wrong-reg", func.name, color, k
                )
            if had_store:
                drop_store = faults.active() is not None and faults.should_fire(
                    "rap.motion.drop-store", func.name
                )
                if not drop_store:
                    spill_node = Region(
                        kind="spill", note=f"post-{info.loop.name}"
                    )
                    spill_node.items.append(stm(slot, register))
                    parent.items.insert(index + 1, spill_node)
                    report.inserted_stores += 1
            # The first interior access was a load, so the value is live
            # into the loop: one preload replaces the per-iteration loads
            # (and makes the trailing store zero-trip safe).
            spill_node = Region(kind="spill", note=f"pre-{info.loop.name}")
            spill_node.items.append(ldm(slot, preg(load_color)))
            parent.items.insert(index, spill_node)
            report.inserted_loads += 1
            report.hoisted_slots.append((info.loop.name, slot))
            report.hoists.append(
                HoistCert(info.loop.name, slot, color, had_store)
            )
    if report.deleted_instrs or report.hoisted_slots:
        func.bump_version()
    return report


def _locate(func: PDGFunction, region: Region) -> Tuple[Region, int]:
    parents = func.parent_map()
    if region not in parents:
        raise ValueError(f"{region.name} has no parent (cannot hoist)")
    return parents[region]


def _delete_instrs(root: Region, doomed: Set[int]) -> None:
    """Remove instructions (by identity) anywhere in ``root``'s subtree."""
    for region in root.walk_regions():
        region.items = [
            item
            for item in region.items
            if not (isinstance(item, Instr) and id(item) in doomed)
        ]
