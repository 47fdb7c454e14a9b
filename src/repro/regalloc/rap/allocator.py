"""RAP: the hierarchical register allocator over the PDG (paper §3).

Three phases:

1. **Bottom-up allocation** (:mod:`.region_alloc`): every region's
   interference graph is built, spill-costed, colored with first-fit
   Briggs-optimistic simplify/select, and combined into a ≤k-node summary
   merged into its parent's graph; spills are local to the region and
   rename the victim per region.  The entry region's coloring is the
   physical register assignment.
2. **Spill-code motion** (:mod:`.motion`): loads and stores are hoisted
   out of loop regions into fresh spill nodes where the carried value owns
   its physical register for the whole loop.
3. **Load/store optimization** (:mod:`.peephole`): Figure 6's redundant
   direct loads and stores are removed within basic blocks, and
   same-register copies are dropped.

``allocate_rap`` mutates the :class:`~repro.pdg.graph.PDGFunction` it is
given (callers use :meth:`CompiledProgram.fresh_module` for a private
copy) and returns the same :class:`~repro.regalloc.chaitin.AllocationResult`
shape as the GRA baseline, so the harness and tests treat the two
allocators interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...ir.iloc import Instr, Op, Reg, Symbol, preg
from ...pdg.graph import PDGFunction
from ...pdg.linearize import linearize
from ...pdg.liveness import FunctionAnalysis, Placement
from ...pdg.nodes import Region
from ..chaitin import AllocationError, AllocationResult
from ..coloring import ColoringResult
from ..interference import InterferenceGraph
from .motion import MotionReport, collect_loop_info, move_spill_code
from .peephole import PeepholeReport, eliminate_redundant_mem_ops
from .region_alloc import allocate_region


class RAPContext:
    """Shared state of one RAP run over one function."""

    def __init__(
        self,
        func: PDGFunction,
        k: int,
        optimistic: bool = True,
        remat: bool = False,
        max_region_rounds: Optional[int] = None,
        paranoid_analysis: bool = False,
    ):
        self.func = func
        self.k = k
        self.optimistic = optimistic
        self.remat = remat
        #: True takes a whole-function FunctionAnalysis for every query
        #: after a mutation (the pre-caching behaviour) — kept as the
        #: oracle tests compare the snapshot reuse and the victim-scoped
        #: re-analysis against.
        self.paranoid_analysis = paranoid_analysis
        #: per-region round budget override (None = module default).
        self.max_region_rounds = max_region_rounds
        #: temporaries introduced by rematerialization (never re-remat).
        self.remat_temps: Set[Reg] = set()
        #: (victim, constant) pairs rematerialized so far.
        self.remat_log: List[Tuple[Reg, object]] = []
        #: active combined graphs of already-allocated subregions
        self.sub_graphs: Dict[int, InterferenceGraph] = {}
        #: loop graphs retained for phase 2, id(region) -> (region, graph)
        self.loop_graphs: Dict[int, Tuple[Region, InterferenceGraph]] = {}
        #: region objects for every id appearing in sub_graphs
        self.region_by_id: Dict[int, Region] = {}
        #: renamed register -> original source register
        self.origin: Dict[Reg, Reg] = {}
        #: original register -> its spill slot (created on first spill)
        self.slots: Dict[Reg, Symbol] = {}
        self.final_graph: Optional[InterferenceGraph] = None
        self.final_coloring: Optional[ColoringResult] = None
        #: telemetry: (region name, victims) per spill event
        self.spill_log: List[Tuple[str, List[Reg]]] = []
        #: telemetry: whole-function FunctionAnalysis builds this run
        #: (victim-scoped updates after a spill round are not counted).
        self.analysis_builds = 0
        self._analysis: Optional[FunctionAnalysis] = None
        #: False when the cached snapshot may be *structurally* stale
        #: (instructions deleted), which planning must never tolerate.
        self._planning_ok = False
        #: registers whose references changed since the cached snapshot
        #: (spilled registers and their fresh names), and where the spill
        #: instructions inserted meanwhile sit.
        self._spilled_regs: Set[Reg] = set()
        self._placements: List[Placement] = []
        #: per-region referenced-register sets, valid for one func.version.
        self._region_refs: Dict[int, Set[Reg]] = {}
        self._region_refs_version = -1

    # -- analyses ----------------------------------------------------------

    def analysis(self) -> FunctionAnalysis:
        """A snapshot guaranteed current, retaken iff the function's
        version counter moved since the cached snapshot was taken.

        After pure spill insertions the new snapshot is derived from the
        cached one, re-solving only the spilled registers and their fresh
        names; otherwise (first use, rematerialization's deletions, spill
        code the cached snapshot cannot be patched with, or
        ``paranoid_analysis``) it is a whole-function build.
        """
        cached = self._analysis
        if cached is None or cached.version != self.func.version:
            derived = None
            if cached is not None and self._planning_ok and not self.paranoid_analysis:
                derived = FunctionAnalysis.after_spill(
                    cached, self._spilled_regs, self._placements
                )
            if derived is None:
                derived = FunctionAnalysis(self.func)
                self.analysis_builds += 1
            self._analysis = derived
            self._spilled_regs = set()
            self._placements = []
            self._planning_ok = True
        return self._analysis

    fresh_analysis = analysis

    def planning_analysis(self) -> FunctionAnalysis:
        """The round-start snapshot, tolerated stale across same-round
        spill insertions.

        Spilling victim A inserts ``ldm``/``stm`` around existing
        instructions and renames A — it never deletes an instruction,
        never changes the basic-block structure, and never touches a
        different victim B's references.  B's def-use chains, per-region
        liveness, and reachability queries against the round-start
        snapshot therefore still answer correctly, so same-round
        multi-victim spills can share one snapshot.  Anything that
        *deletes* instructions (rematerialization's dead-def sweep) calls
        :meth:`invalidate_analysis`, after which planning rebuilds.
        """
        if (
            not self.paranoid_analysis
            and self._planning_ok
            and self._analysis is not None
        ):
            return self._analysis
        return self.analysis()

    def invalidate_analysis(self) -> None:
        """Drop the snapshot entirely (after structural deletions)."""
        self._analysis = None
        self._planning_ok = False

    def mark_dirty(self) -> None:
        """Record that the function was mutated (bumps its version, so
        the next strict :meth:`analysis` call rebuilds)."""
        self.func.bump_version()

    def record_spill(self, regs: Set[Reg], placements: List[Placement]) -> None:
        """Record one spill insertion: ``regs`` (the victim and its fresh
        names) had references renamed, and spill code was inserted at
        ``placements`` (positions in the cached snapshot)."""
        self._spilled_regs |= regs
        self._placements.extend(placements)
        self.mark_dirty()

    # -- rename / slot bookkeeping ---------------------------------------------

    def origin_of(self, reg: Reg) -> Reg:
        return self.origin.get(reg, reg)

    def record_rename(self, new: Reg, old: Reg) -> None:
        self.origin[new] = self.origin_of(old)

    def known_renames(self) -> Set[Reg]:
        return set(self.origin)

    def slot_for(self, reg: Reg) -> Symbol:
        source = self.origin_of(reg)
        slot = self.slots.get(source)
        if slot is None:
            slot = Symbol(f"{self.func.name}.{source}", "spill")
            self.slots[source] = slot
        return slot

    # -- graph bookkeeping ---------------------------------------------------------

    def patch_subregion_graph(self, sub: Region, old: Reg, new: Reg) -> None:
        """After renaming ``old`` to ``new`` inside ``sub``, keep the saved
        graphs (the subregion's combined graph and any retained loop graph
        within the subtree) consistent."""
        graph = self.sub_graphs.get(id(sub))
        if graph is not None:
            graph.rename_member(old, new)
        holders = [
            (region_id, loop_graph)
            for region_id, (_, loop_graph) in self.loop_graphs.items()
            if old in loop_graph
        ]
        if holders:
            member_ids = {id(r) for r in sub.walk_regions()}
            for region_id, loop_graph in holders:
                if region_id in member_ids:
                    loop_graph.rename_member(old, new)

    def save_loop_graph(self, region: Region, graph: InterferenceGraph) -> None:
        self.loop_graphs[id(region)] = (region, graph)

    def region_refs(self, region: Region) -> Set[Reg]:
        """Registers referenced in ``region``'s subtree, cached per
        ``func.version``.

        Equivalent to ``region.referenced_regs()`` but computed
        recursively with memoization, so overlapping subtrees (a loop
        graph retained inside another saved region) and repeated queries
        at the same version share one walk instead of re-walking the
        whole subtree per saved graph.
        """
        if self._region_refs_version != self.func.version:
            self._region_refs.clear()
            self._region_refs_version = self.func.version
        refs = self._region_refs.get(id(region))
        if refs is None:
            refs = set()
            for item in region.items:
                if isinstance(item, Instr):
                    refs.update(item.regs())
                elif isinstance(item, Region):
                    refs |= self.region_refs(item)
                else:  # Predicate
                    refs.update(item.branch.regs())
                    for sub in item.regions():
                        refs |= self.region_refs(sub)
            self._region_refs[id(region)] = refs
        return refs

    def register_sub_graph(
        self, region: Region, graph: InterferenceGraph
    ) -> None:
        self.sub_graphs[id(region)] = graph
        self.region_by_id[id(region)] = region

    def purge_unreferenced_members(self) -> None:
        """Drop saved-graph members no longer referenced in their region.

        Every member of a region's combined graph is referenced somewhere
        in that region's subtree — an invariant the dead-code sweep after
        rematerialization can break (it may delete, e.g., a then-branch
        computation whose consumer was renamed dead).  A stale member is
        dangerous: importing the graph at an ancestor would merge the
        still-live outer register into the subregion's color group even
        though it no longer has any connection to it.
        """
        targets = [
            (self.region_by_id[rid], graph)
            for rid, graph in self.sub_graphs.items()
        ]
        targets.extend(self.loop_graphs.values())
        for region, graph in targets:
            refs = self.region_refs(region)
            for reg in sorted(graph.registers() - refs):
                graph.drop_member(reg)

    def patch_graphs_for_remat(self, victim: Reg, temps: Set[Reg]) -> None:
        """After a function-wide rematerialization of ``victim``, keep
        every saved graph consistent: the constant-loading temporaries
        referenced inside a saved region inherit the victim's node (their
        live ranges are sub-ranges of its old ones), and the victim itself
        is dropped everywhere."""
        targets = [
            (self.region_by_id[rid], graph)
            for rid, graph in self.sub_graphs.items()
        ]
        targets.extend(self.loop_graphs.values())
        for region, graph in targets:
            if victim not in graph:
                continue
            node = graph.node_of(victim)
            refs = self.region_refs(region)
            inherit = sorted(temp for temp in temps if temp in refs)
            unplaced = [t for t in inherit if graph.node_of(t) is None]
            graph.absorb_members(node, unplaced)
            graph.drop_member(victim)

    def log_spill(self, region: Region, victims: List[Reg]) -> None:
        self.spill_log.append((region.name, list(victims)))


@dataclass
class RAPResult(AllocationResult):
    """GRA-compatible result plus RAP phase telemetry."""

    spill_log: List[Tuple[str, List[Reg]]] = field(default_factory=list)
    motion: MotionReport = field(default_factory=MotionReport)
    peephole: PeepholeReport = field(default_factory=PeepholeReport)
    rematerialized: List[Tuple[Reg, object]] = field(default_factory=list)
    #: FunctionAnalysis (linearize + CFG + liveness) builds this run.
    analysis_builds: int = 0
    #: Snapshot of the linearized body after the physical rewrite but
    #: before spill-code motion (cloned instructions), plus each loop
    #: region's span within it — the raw material the independent motion
    #: validator recomputes availability over.  ``None`` when motion was
    #: disabled or had nothing to consider.
    pre_motion_code: Optional[List[Instr]] = None
    #: loop region name -> (start, end) span in ``pre_motion_code``.
    loop_spans: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Snapshot of the linear body handed to the Figure-6 peephole
    #: (cloned), for the symbolic before/after equivalence recheck.
    pre_peephole_code: Optional[List[Instr]] = None

    def telemetry(self) -> Dict[str, int]:
        counters = super().telemetry()
        counters["peephole_hits"] = self.peephole.total
        counters["analysis_builds"] = self.analysis_builds
        return counters


def allocate_rap(
    func: PDGFunction,
    k: int,
    optimistic: bool = True,
    enable_motion: bool = True,
    enable_peephole: bool = True,
    remat: bool = False,
    global_peephole: bool = False,
    max_rounds: Optional[int] = None,
    paranoid_analysis: bool = False,
) -> RAPResult:
    """Run all three RAP phases on ``func`` (mutating it).

    ``remat=True`` enables the rematerialization extension (see
    :mod:`repro.regalloc.remat`); ``global_peephole=True`` replaces the
    basic-block peephole with the whole-CFG availability pass (the
    "move spill code out of any subregion" future-work extension, see
    :mod:`.global_opt`).  ``max_rounds`` overrides the per-region
    build/spill round budget.  ``paranoid_analysis=True`` disables the
    same-round analysis-snapshot reuse and the victim-scoped snapshot
    updates (rebuilding a whole-function snapshot per spill victim, the
    pre-caching behaviour) — results are identical either way; the flag
    exists so tests can prove that.
    """
    if k < 3:
        raise ValueError("a load/store architecture needs at least 3 registers")

    # ---- phase 1: bottom-up hierarchical allocation -------------------------
    ctx = RAPContext(
        func, k, optimistic=optimistic, remat=remat,
        max_region_rounds=max_rounds,
        paranoid_analysis=paranoid_analysis,
    )
    allocate_region(ctx, func.entry)
    if ctx.final_coloring is None:  # pragma: no cover - defensive
        raise AllocationError(f"{func.name}: entry region never colored")

    assignment: Dict[Reg, int] = {}
    mapping: Dict[Reg, Reg] = {}
    for node, color in ctx.final_coloring.colors.items():
        for reg in node.members:
            assignment[reg] = color
            mapping[reg] = preg(color)

    # Metadata for phase 2 must be collected before the rewrite erases the
    # virtual-register view; so must the snapshot the validate stage
    # rechecks the coloring against.
    loop_infos = (
        collect_loop_info(func, set(ctx.slots.values())) if enable_motion else []
    )
    virtual_code = [instr.clone() for instr in linearize(func).instrs]

    for instr in func.walk_instrs():
        instr.rewrite_regs(mapping)
    func.bump_version()

    # ---- phase 2: spill-code motion out of loops ----------------------------------
    motion_report = MotionReport()
    pre_motion_code: Optional[List[Instr]] = None
    loop_spans: Dict[str, Tuple[int, int]] = {}
    if enable_motion:
        if any(info.slot_instrs for info in loop_infos):
            # The motion validator replays every hoist against the
            # pre-motion view; snapshot it (cloned — motion mutates the
            # PDG in place) together with each loop region's span.
            pre_motion = linearize(func)
            pre_motion_code = [instr.clone() for instr in pre_motion.instrs]
            loop_spans = {
                region.name: span
                for region, span in pre_motion.region_span.items()
                if region.is_loop
            }
        slot_of_origin = dict(ctx.slots)
        motion_report = move_spill_code(
            func, loop_infos, assignment, dict(ctx.origin), slot_of_origin, k
        )

    # ---- phase 3: local load/store elimination --------------------------------------
    code = list(linearize(func).instrs)
    code = [
        instr
        for instr in code
        if not (instr.op is Op.I2I and instr.srcs[0] == instr.dst)
    ]
    peephole_report = PeepholeReport()
    pre_peephole_code: Optional[List[Instr]] = None
    if enable_peephole:
        if global_peephole:
            # The whole-CFG pass moves facts across block boundaries, so
            # the per-window peephole validator does not apply; no
            # snapshot means the validate stage skips it.
            from .global_opt import eliminate_redundant_mem_ops_global

            code, peephole_report = eliminate_redundant_mem_ops_global(code)
        else:
            pre_peephole_code = [instr.clone() for instr in code]
            code, peephole_report = eliminate_redundant_mem_ops(
                code, function=func.name
            )

    spilled = sorted({ctx.origin_of(reg) for _, regs in ctx.spill_log for reg in regs})
    return RAPResult(
        name=func.name,
        code=code,
        k=k,
        rounds=1 + len(ctx.spill_log),
        spilled=spilled,
        assignment=assignment,
        virtual_code=virtual_code,
        spill_log=ctx.spill_log,
        motion=motion_report,
        peephole=peephole_report,
        rematerialized=list(ctx.remat_log),
        analysis_builds=ctx.analysis_builds,
        pre_motion_code=pre_motion_code,
        loop_spans=loop_spans,
        pre_peephole_code=pre_peephole_code,
    )
