"""Hierarchical spill-code insertion (paper §3.1.4).

Spilling a virtual register *within a region* — not throughout the whole
procedure — is the heart of RAP's local-spill advantage: "a variable may
be assigned to register R1 in one region, register R2 in another region,
and spilled in another region" (§1).

For a victim register ``v`` spilled while allocating region ``V``:

1. **Parent region code**: a load is inserted before each use and a store
   after each definition in V's directly attached statements, and ``v`` is
   renamed there (one fresh name for the parent region).
2. **Each subregion** ``Ri`` referencing ``v``: if ``v`` is live on
   entrance, a load is inserted before the first item referencing it; a
   store is inserted after each definition whose value can reach a spill
   load (the paper's "definition which has a corresponding use outside of
   the subregion", extended with a CFG-reachability test so that
   loop-carried values crossing a re-executed load are also stored — the
   extra stores this adds are exactly the "excess spill code" §4 blames on
   small regions and later cleans up).  ``v`` is renamed inside ``Ri``,
   "making it completely local to the subregion", and the renamed register
   replaces ``v`` in the subregion's saved interference graph.
3. **Outside the region** (the paper's recursive patch-up): every outside
   definition that feeds a load inside the region — or that co-reaches an
   outside use whose defining instruction was renamed away — gets a store;
   every outside use whose reaching definitions include a renamed-away
   inside definition gets a load.  These reference the original ``v``,
   which remains a live register candidate outside the region.

All spill traffic of one source register shares a single per-function slot
(named after the *original* register), so loads and stores issued by
different regions stay mutually consistent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...cfg.graph import CFG, BasicBlock
from ...ir.iloc import Instr, Reg, Symbol, ldm, stm
from ...pdg.liveness import FunctionAnalysis, Placement
from ...pdg.nodes import Item, Predicate, Region
from ...resilience import faults


class _Reachability:
    """Memoized forward block reachability over a CFG."""

    def __init__(self, cfg: CFG):
        self._cfg = cfg
        self._cache: Dict[int, Set[int]] = {}

    def from_successors(self, block: BasicBlock) -> Set[int]:
        cached = self._cache.get(block.index)
        if cached is not None:
            return cached
        seen: Set[int] = set()
        stack = [succ for succ in block.succs]
        while stack:
            current = stack.pop()
            if current.index in seen:
                continue
            seen.add(current.index)
            stack.extend(current.succs)
        self._cache[block.index] = seen
        return seen

    def reaches(self, cfg: CFG, from_index: int, to_index: int) -> bool:
        from_block = cfg.block_at[from_index]
        to_block = cfg.block_at[to_index]
        if from_block is None or to_block is None:
            return False
        if from_block is to_block and from_index < to_index:
            return True
        return to_block.index in self.from_successors(from_block)


def _item_references(item: Item, reg: Reg, analysis: FunctionAnalysis) -> bool:
    """Whether ``item`` references ``reg``, answered for nested regions by
    the round-start snapshot (a same-round sibling spill never adds or
    removes references of a different register)."""
    if isinstance(item, Instr):
        return reg in item.regs()
    if isinstance(item, Predicate):
        if reg in item.branch.regs():
            return True
        return any(reg in analysis.referenced(sub) for sub in item.regions())
    return reg in analysis.referenced(item)


def _first_instr_of(item: Item) -> Optional[Instr]:
    if isinstance(item, Instr):
        return item
    if isinstance(item, Predicate):
        return item.branch
    for instr in item.walk_instrs():
        return instr
    return None


def _first_snapshot_instr_of(item: Item, linear) -> Optional[Instr]:
    """Like :func:`_first_instr_of`, but restricted to instructions the
    analysis snapshot knows about.

    When a same-round sibling spill already inserted spill code, an
    item's literal first instruction may be a fresh ``ldm`` absent from
    the round-start snapshot.  The first *snapshot* instruction of the
    item anchors the same position in snapshot coordinates: the skipped
    instructions are non-branch insertions sitting immediately before it,
    so block membership and reachability are unchanged.
    """
    first = _first_instr_of(item)
    if first is None or linear.contains(first):
        return first
    if isinstance(item, Region):
        for instr in item.walk_instrs():
            if linear.contains(instr):
                return instr
    return None


def spill_register(ctx, region: Region, victim: Reg) -> None:
    """Insert spill code for one victim register spilled at ``region``.

    ``ctx`` is the :class:`~repro.regalloc.rap.allocator.RAPContext`; the
    function mutates the PDG, records rename origins, and patches saved
    subregion graphs.  Every lookup goes through the snapshot's indexes
    (the victim's own references, region spans), so the work scales with
    the victim's references and the region, not the function.
    """
    # The round-start snapshot: safely shared by every victim of this
    # round's spill list (see RAPContext.planning_analysis for why pure
    # spill insertions keep it valid for the *other* victims).
    analysis: FunctionAnalysis = ctx.planning_analysis()
    func = ctx.func
    slot = ctx.slot_for(victim)
    # Loads normally reference the same slot as the stores; the fault
    # probe can desynchronize them for one spill event to model a
    # slot-naming bug (spill-discipline validation must catch it).
    load_slot = slot
    if faults.active() is not None:
        corrupted = faults.maybe_corrupt_slot(
            "rap.spill.corrupt-slot", func.name, slot.name
        )
        if corrupted != slot.name:
            load_slot = Symbol(corrupted, "spill")
    chains = analysis.chains(victim)
    linear = analysis.linear
    start, end = linear.region_span[region]

    def inside(instr: Instr) -> bool:
        return start <= linear.index_of(instr) < end

    # The victim's references inside the region, by owner: the parent
    # region's own code (key None) or the subregion containing them.
    inside_refs: Dict[Optional[int], List[Instr]] = {}
    owner_of: Dict[int, Optional[Region]] = {}
    for instr in analysis.references(victim):
        if inside(instr):
            sub = analysis.subregion_at(region, instr)
            owner_of[id(instr)] = sub
            inside_refs.setdefault(None if sub is None else id(sub), []).append(instr)
    direct = inside_refs.get(None, [])
    subregions = analysis.subregions(region)

    inside_defs = [d for d in chains.all_defs() if inside(d)]
    outside_defs = [d for d in chains.all_defs() if not inside(d)]
    outside_uses = [u for u in chains.all_uses() if not inside(u)]

    # ---- patch-up sets (step 3) --------------------------------------------
    uses_needing_load = [
        use
        for use in outside_uses
        if any(inside(site) for site in chains.defs_reaching(use))
    ]
    patched_use_ids = {id(use) for use in uses_needing_load}
    defs_needing_store: List[Instr] = []
    for definition in outside_defs:
        reached = chains.uses_reached_by(definition)
        if any(inside(use) for use in reached) or any(
            id(use) in patched_use_ids for use in reached
        ):
            defs_needing_store.append(definition)

    # ---- plan instruction-anchored edits --------------------------------------
    # Each edit is (anchor_instr, "before"|"after", new_instr).
    edits: List[Tuple[Instr, str, Instr]] = []

    parent_name = func.new_vreg()
    ctx.record_rename(parent_name, victim)
    load_anchor_instrs: List[Instr] = []

    for instr in direct:
        if victim in instr.uses:
            edits.append((instr, "before", ldm(load_slot, parent_name)))
            load_anchor_instrs.append(instr)
        if victim in instr.defs:
            edits.append((instr, "after", stm(slot, parent_name)))

    # Subregion planning: renames, entry loads, and reachability anchors.
    sub_renames: List[Tuple[Region, Reg]] = []
    entry_loads: List[Tuple[Region, Reg]] = []
    for sub in subregions:
        if id(sub) not in inside_refs:
            continue
        sub_name = func.new_vreg()
        ctx.record_rename(sub_name, victim)
        sub_renames.append((sub, sub_name))
        if victim in analysis.live_in(sub):
            entry_loads.append((sub, sub_name))
            for item in sub.items:
                if _item_references(item, victim, analysis):
                    anchor = _first_snapshot_instr_of(item, linear)
                    if anchor is not None:
                        load_anchor_instrs.append(anchor)
                    break

    for use in uses_needing_load:
        load_anchor_instrs.append(use)

    # Stores after inside definitions.  Parent-region definitions always
    # store; subregion definitions store when their value can reach a
    # spill load (see module docstring).
    reach = _Reachability(analysis.cfg)
    load_positions = [linear.index_of(instr) for instr in load_anchor_instrs]
    rename_of_sub: Dict[int, Reg] = {id(sub): name for sub, name in sub_renames}

    for definition in inside_defs:
        owner = owner_of[id(definition)]
        if owner is None:
            continue  # already planned above
        def_pos = linear.index_of(definition)
        if any(
            reach.reaches(analysis.cfg, def_pos, pos) for pos in load_positions
        ):
            edits.append(
                (definition, "after", stm(slot, rename_of_sub[id(owner)]))
            )

    # Patch-up edits outside the region (reference the original register).
    for use in uses_needing_load:
        edits.append((use, "before", ldm(load_slot, victim)))
    for definition in defs_needing_store:
        edits.append((definition, "after", stm(slot, victim)))

    placements = _apply_edits(analysis, edits)

    # Entry loads are positional: before the first item that still
    # references the (not yet renamed) victim.
    for sub, sub_name in entry_loads:
        position, item = next(
            (position, item)
            for position, item in enumerate(sub.items)
            if _item_references(item, victim, analysis)
        )
        entry_load = ldm(load_slot, sub_name)
        sub.items.insert(position, entry_load)
        path = analysis.region_path(region) + [sub]
        placements.append(
            analysis.placement(
                entry_load, analysis.first_position(item), path, after=False
            )
        )

    # ---- renames ------------------------------------------------------------------
    for instr in direct:
        instr.rewrite_regs({victim: parent_name})
    for sub, sub_name in sub_renames:
        mapping = {victim: sub_name}
        for instr in inside_refs[id(sub)]:
            instr.rewrite_regs(mapping)
        ctx.patch_subregion_graph(sub, victim, sub_name)

    fresh = {parent_name} | {name for _, name in sub_renames}
    ctx.record_spill({victim} | fresh, placements)


def _apply_edits(
    analysis: FunctionAnalysis, edits: Sequence[Tuple[Instr, str, Instr]]
) -> List[Placement]:
    """Insert new instructions around identity-anchored existing ones;
    return where the instructions actually inserted sit (see
    :meth:`FunctionAnalysis.placement`).

    Skips an insertion when the neighbouring item is already an identical
    ``ldm``/``stm`` (deduplicating patch-up code across successive spills
    of the same register by sibling regions).
    """
    placements: List[Placement] = []
    if not edits:
        return placements
    per_slot: Dict[Tuple[int, int], Dict[str, List[Instr]]] = {}
    anchors: Dict[Tuple[int, int], Tuple[Instr, List[Region]]] = {}
    for anchor, where, new_instr in edits:
        path = analysis.owner_path(anchor)
        owner = path[-1]
        key = (id(owner), _item_index(owner, anchor))
        anchors[key] = (anchor, path)
        bucket = per_slot.setdefault(key, {"before": [], "after": []})
        bucket[where].append(new_instr)

    by_region: Dict[int, List[Tuple[int, Dict[str, List[Instr]]]]] = {}
    for (owner_id, index), bucket in per_slot.items():
        by_region.setdefault(owner_id, []).append((index, bucket))

    for owner_id, entries in by_region.items():
        for index, bucket in sorted(entries, key=lambda e: e[0], reverse=True):
            anchor, path = anchors[(owner_id, index)]
            owner = path[-1]
            afters = [
                instr
                for instr in bucket["after"]
                if not _same_mem_instr(owner.items, index + 1, instr)
            ]
            owner.items[index + 1:index + 1] = afters
            befores = [
                instr
                for instr in bucket["before"]
                if not _same_mem_instr(owner.items, index - 1, instr)
            ]
            owner.items[index:index] = befores
            position = analysis.linear.index_of(anchor)
            for instr in afters:
                placements.append(analysis.placement(instr, position + 1, path, True))
            for instr in befores:
                placements.append(analysis.placement(instr, position, path, False))
    return placements


def _item_index(owner: Region, anchor: Instr) -> int:
    """Position in ``owner.items`` of ``anchor`` or of the predicate
    whose branch it is."""
    try:
        return owner.items.index(anchor)  # items compare by identity
    except ValueError:
        return next(
            index
            for index, item in enumerate(owner.items)
            if isinstance(item, Predicate) and item.branch is anchor
        )


def _same_mem_instr(items: List[Item], index: int, instr: Instr) -> bool:
    if index < 0 or index >= len(items):
        return False
    existing = items[index]
    if not isinstance(existing, Instr) or existing.op is not instr.op:
        return False
    return (
        existing.addr == instr.addr
        and existing.srcs == instr.srcs
        and existing.dst == instr.dst
    )
