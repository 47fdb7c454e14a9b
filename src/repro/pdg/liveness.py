"""Per-region dataflow facts for a PDG function.

RAP needs, for every region and at several points inside it (§3.1 of the
paper): live-on-entry and live-on-exit sets, per-instruction live sets for
interference construction, reference sets, and locality ("a virtual
register is *local* to a region if all references to that virtual register
can be found in intermediate code within the region; otherwise it is
*global* to that region").

Rather than running a bespoke hierarchical analysis over the region tree,
we exploit the identity-sharing linearization (:mod:`repro.pdg.linearize`):
one ordinary CFG liveness pass over the linear code answers every
region-level query, because each structured region occupies one contiguous
linear span.  Loop-carried liveness falls out of the CFG fixpoint for
free.  The same contiguity turns the other queries into span tests over
indexes built once per snapshot: a register is local to a region when its
first and last references fall inside the region's span, and its ud/du
chains visit only its own reference positions.

A :class:`FunctionAnalysis` is a snapshot — take a new one after mutating
the PDG.  RAP needs one per allocation round, but builds a whole-function
snapshot only once per function (and again after rematerialization
deletes code, or when spill code cannot be spliced in).  After a spill round it derives the next snapshot with
:meth:`FunctionAnalysis.after_spill`: the spill code is spliced into the
linear code and the CFG's block boundaries are shifted (the PDG is not
re-walked), liveness and the reference index are re-solved only for the
spilled registers and their fresh names, and every per-region set the
spill did not touch carries over.  Per-position live sets are derived
block by block on demand, so a round pays for the region it allocates
plus a few list copies, not for a whole-function reanalysis.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..cfg.graph import CFG
from ..cfg.liveness import LivenessResult, compute_liveness, update_liveness
from ..cfg.reachdefs import RegChains, chains_at
from ..ir.iloc import Instr, Reg
from .graph import PDGFunction
from .linearize import LinearCode, insert_instrs, linearize
from .nodes import Item, Predicate, Region

#: (referenced, used, defined) registers of one region
_RegionSets = Tuple[Set[Reg], Set[Reg], Set[Reg]]
#: (gap, rank, instruction, ids of its regions): one inserted instruction
#: goes before old linear position ``gap``; ``rank`` orders a shared gap.
Placement = Tuple[int, Tuple[int, int], Instr, FrozenSet[int]]


class FunctionAnalysis:
    """Linearization + CFG + liveness snapshot of one PDG function."""

    def __init__(self, func: PDGFunction):
        linear = linearize(func)
        self._take(func, linear, CFG(linear.instrs))
        #: register -> the instructions referencing it, in linear order
        self._refs: Dict[Reg, List[Instr]] = {}
        for instr in self.linear.instrs:
            for reg in instr.regs():
                refs = self._refs.get(reg)
                if refs is None:
                    self._refs[reg] = [instr]
                elif refs[-1] is not instr:
                    refs.append(instr)
        self.live: LivenessResult = compute_liveness(self.cfg)
        self._region_sets: Dict[int, _RegionSets] = {}

    def _take(self, func: PDGFunction, linear: LinearCode, cfg: CFG) -> None:
        self.func = func
        #: the function's mutation counter at snapshot time (consumers
        #: key their caches on it — see ``RAPContext.analysis``).
        self.version = getattr(func, "version", 0)
        self.linear = linear
        self.cfg = cfg
        self._chains: Dict[Reg, RegChains] = {}
        #: register -> (first, last) reference position, () if none
        self._bounds_of: Dict[Reg, Tuple[int, ...]] = {}
        self._sub_spans: Dict[int, Tuple[List[int], List[int], List[Region]]] = {}

    @classmethod
    def after_spill(
        cls,
        previous: "FunctionAnalysis",
        regs: Set[Reg],
        placements: List[Placement],
    ) -> Optional["FunctionAnalysis"]:
        """The snapshot of ``previous.func`` after spill insertion.

        Since ``previous`` was taken, the function may only have gained
        the ``placements``' instructions (``ldm``/``stm``, none of them a
        branch, each placed by :meth:`placement`) and had references
        renamed among ``regs`` (the spilled registers and their fresh
        names).  The linear code and CFG are patched rather than rebuilt,
        and every other register's references and liveness are unchanged,
        so only ``regs`` are re-indexed and re-solved; the result answers
        every query exactly as a fresh ``FunctionAnalysis(func)`` would.
        Returns None when the patch cannot be made (an empty region at an
        insertion point, or spill code that would lead a basic block); the
        caller then takes a fresh snapshot.
        """
        func = previous.func
        ordered = sorted(placements, key=lambda placement: placement[:2])
        inserted = [instr for _, _, instr, _ in ordered]
        linear = insert_instrs(
            previous.linear, [(gap, instr, owners) for gap, _, instr, owners in ordered]
        )
        if linear is None:
            return None
        gaps = [gap for gap, _, _, _ in ordered]
        cfg = CFG.with_insertions(previous.cfg, linear.instrs, gaps)
        if cfg is None:
            return None
        new = cls.__new__(cls)
        new._take(func, linear, cfg)
        index = linear.index_of
        # Every reference of ``regs`` now sits in an inserted instruction
        # or one that referenced a spilled register before the renames.
        candidates = {id(instr): instr for instr in inserted}
        for reg in regs:
            for instr in previous._refs.get(reg, ()):
                candidates[id(instr)] = instr
        found: Dict[Reg, Dict[int, Instr]] = {reg: {} for reg in regs}
        for instr in candidates.values():
            for reg in instr.regs():
                if reg in found:
                    found[reg][id(instr)] = instr
        new._refs = dict(previous._refs)
        positions: Dict[Reg, List[int]] = {}
        for reg, hits in found.items():
            refs = sorted(hits.values(), key=index)
            if refs:
                new._refs[reg] = refs
            else:
                new._refs.pop(reg, None)
            positions[reg] = [index(instr) for instr in refs]
        new.live = update_liveness(previous.live, cfg, positions)
        # A region whose references avoided the spilled registers gained
        # no instruction and lost no reference: its sets carry over.
        new._region_sets = {
            key: sets
            for key, sets in previous._region_sets.items()
            if sets[0].isdisjoint(regs)
        }
        return new

    # -- per-instruction ----------------------------------------------------

    def live_before(self, instr: Instr) -> Set[Reg]:
        return self.live.at(self.linear.index_of(instr))

    def live_after(self, instr: Instr) -> Set[Reg]:
        return self.live.after(self.linear.index_of(instr))

    # -- per-region -----------------------------------------------------------

    def live_in(self, region: Region) -> Set[Reg]:
        start, _ = self.linear.region_span[region]
        return self.live.at(start)

    def live_out(self, region: Region) -> Set[Reg]:
        _, end = self.linear.region_span[region]
        return self.live.at(end)

    def _sets(self, region: Region) -> _RegionSets:
        sets = self._region_sets.get(id(region))
        if sets is None:
            start, end = self.linear.region_span[region]
            used: Set[Reg] = set()
            defined: Set[Reg] = set()
            for instr in self.linear.instrs[start:end]:
                used.update(instr.srcs)
                if instr.dst is not None:
                    defined.add(instr.dst)
            sets = self._region_sets[id(region)] = (used | defined, used, defined)
        return sets

    def referenced(self, region: Region) -> Set[Reg]:
        """Registers referenced anywhere in the region."""
        return self._sets(region)[0]

    def used(self, region: Region) -> Set[Reg]:
        """Registers read anywhere in the region."""
        return self._sets(region)[1]

    def defined(self, region: Region) -> Set[Reg]:
        """Registers written anywhere in the region."""
        return self._sets(region)[2]

    def is_local_to(self, reg: Reg, region: Region) -> bool:
        """True if *all* references of ``reg`` are inside ``region``.

        Parameter home registers are defined by the entry prologue's
        ``ldm``, so they are naturally global to every proper subregion.
        """
        bounds = self._bounds(reg)
        if not bounds:
            return True
        start, end = self.linear.region_span[region]
        return start <= bounds[0] and bounds[1] < end

    def is_global_to(self, reg: Reg, region: Region) -> bool:
        """Referenced (or arriving as a parameter) outside ``region``."""
        return not self.is_local_to(reg, region)

    def _subregion_spans(
        self, region: Region
    ) -> Tuple[List[int], List[int], List[Region]]:
        """Start and end positions of ``region``'s immediate subregions,
        in order (they are emitted in item order, so the starts ascend)."""
        spans = self._sub_spans.get(id(region))
        if spans is None:
            subs = region.subregions()
            span = self.linear.region_span
            spans = self._sub_spans[id(region)] = (
                [span[sub][0] for sub in subs],
                [span[sub][1] for sub in subs],
                subs,
            )
        return spans

    def subregion_at(self, region: Region, instr: Instr) -> Optional[Region]:
        """The immediate subregion of ``region`` containing ``instr`` (a
        snapshot instruction inside ``region``), or None when ``instr``
        belongs to the parent region's own code."""
        position = self.linear._index_of[id(instr)]
        starts, ends, subs = self._subregion_spans(region)
        slot = bisect_right(starts, position) - 1
        return subs[slot] if slot >= 0 and position < ends[slot] else None

    def subregions(self, region: Region) -> List[Region]:
        """``region.subregions()``, computed once per snapshot."""
        return self._subregion_spans(region)[2]

    def home_subregions(
        self, region: Region, regs: Iterable[Reg]
    ) -> Dict[Reg, Optional[Region]]:
        """For each of ``regs`` that has references: the immediate
        subregion of ``region`` it is local to, or None."""
        starts, ends, subs = self._subregion_spans(region)
        homes: Dict[Reg, Optional[Region]] = {}
        for reg in regs:
            bounds = self._bounds(reg)
            if bounds:
                slot = bisect_right(starts, bounds[0]) - 1
                local = slot >= 0 and bounds[1] < ends[slot]
                homes[reg] = subs[slot] if local else None
        return homes

    def _bounds(self, reg: Reg) -> Tuple[int, ...]:
        """``reg``'s first and last reference position, or () when it has
        none (memoized)."""
        bounds = self._bounds_of.get(reg)
        if bounds is None:
            refs = self._refs.get(reg)
            if refs:
                index = self.linear._index_of
                bounds = (index[id(refs[0])], index[id(refs[-1])])
            else:
                bounds = ()
            self._bounds_of[reg] = bounds
        return bounds

    def owner_path(self, instr: Instr) -> List[Region]:
        """The regions from the entry down to the one whose own items
        contain ``instr`` (for a predicate's branch, the region holding
        the predicate)."""
        path = [self.func.entry]
        while True:
            sub = self.subregion_at(path[-1], instr)
            if sub is None:
                return path
            path.append(sub)

    def region_path(self, region: Region) -> List[Region]:
        """The regions from the entry down to (non-empty) ``region``."""
        first = self.linear.instrs[self.linear.region_span[region][0]]
        path = [self.func.entry]
        while path[-1] is not region:
            sub = self.subregion_at(path[-1], first)
            if sub is None:
                raise ValueError(f"{region.name} is not in {self.func.name}")
            path.append(sub)
        return path

    def placement(
        self, instr: Instr, gap: int, path: List[Region], after: bool
    ) -> Placement:
        """Where ``instr`` goes in the linear code (for :meth:`after_spill`):
        just inserted into the last region of ``path`` right after the
        item ending before position ``gap`` (``after``) or right before
        the item beginning at ``gap``."""
        # At one gap, code after the preceding item comes first; code
        # before the next item follows, outermost region first.
        rank = (0, 0) if after else (1, len(path))
        return gap, rank, instr, frozenset(id(region) for region in path)

    def first_position(self, item: Item) -> int:
        """The linear position where PDG item ``item`` begins."""
        if isinstance(item, Region):
            return self.linear.region_span[item][0]
        if isinstance(item, Predicate):
            item = item.branch
        return self.linear._index_of[id(item)]

    # -- chains ---------------------------------------------------------------

    def references(self, reg: Reg) -> List[Instr]:
        """The snapshot instructions referencing ``reg``, in linear order."""
        return self._refs.get(reg, [])

    def chains(self, reg: Reg) -> RegChains:
        """ud/du chains of one register (used by spill insertion);
        memoized per register for the lifetime of the snapshot."""
        cached = self._chains.get(reg)
        if cached is None:
            index = self.linear.index_of
            positions = [index(instr) for instr in self._refs.get(reg, ())]
            cached = self._chains[reg] = chains_at(self.cfg, reg, positions)
        return cached
