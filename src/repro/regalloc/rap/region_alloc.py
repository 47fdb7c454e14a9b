"""The per-region allocation loop — Figure 2 of the paper.

.. code-block:: text

    procedure rap(V, Gv) {
        spill = true
        while (spill) {
            add_region_conflicts(V, Gv)
            add_subregion_conflicts(V, Gv)
            calc_spill_costs(V, Gv)
            color_stack = simplify(Gv)
            spill_list = color(Gv, color_stack)
            if (spill_list is empty) {
                combine
                spill = false
                delete non-loop subregion graphs
            } else
                insert_spill_code(V, spill_list)
        }
    }

driven bottom-up over the PDG by :func:`allocate_region` (each subregion
is fully allocated before its parent's graph is ever built).  Loop-region
graphs are retained for the spill-code-motion phase instead of being
deleted, as §3.1.5 specifies.

One round costs about the size of the region, as in the paper, where a
region's graph is built from its own code plus ≤ k-node subregion
summaries.  Every query goes to the round's
:class:`~repro.pdg.liveness.FunctionAnalysis` snapshot, which answers
locality and reference sets with span tests and memoized per-region sets,
and derives live sets only for the blocks asked about.  After a spill
round the next snapshot re-solves just the spilled registers and their
fresh names (see :meth:`~repro.pdg.liveness.FunctionAnalysis.after_spill`);
only rematerialization's dead-def sweep forces a whole-function rebuild.
"""

from __future__ import annotations

from typing import List, Set

from ...ir.iloc import Reg
from ...pdg.nodes import Region
from ...resilience import faults
from ..chaitin import AllocationError
from ..coloring import color_graph
from ..interference import InterferenceGraph
from .combine import combine
from .conflicts import add_region_conflicts, add_subregion_conflicts
from .spill_costs import calc_spill_costs, compute_global_nodes
from .spill_insert import spill_register

#: Rounds of the while(spill) loop allowed per region before giving up.
MAX_REGION_ROUNDS = 40


def allocate_region(ctx, region: Region) -> InterferenceGraph:
    """Allocate ``region`` bottom-up; return its combined (≤ k node) graph."""
    for sub in region.subregions():
        ctx.register_sub_graph(sub, allocate_region(ctx, sub))

    if faults.active() is not None:
        faults.maybe_raise("rap.region.raise", ctx.func.name)

    round_budget = ctx.max_region_rounds or MAX_REGION_ROUNDS
    spilled_here: Set[Reg] = set()
    for _round in range(round_budget):
        analysis = ctx.analysis()
        graph = InterferenceGraph()
        add_region_conflicts(region, graph, analysis)
        add_subregion_conflicts(region, graph, ctx.sub_graphs, analysis)
        if faults.active() is not None:
            faults.maybe_drop_edge("rap.region.drop-edge", ctx.func.name, graph)
        global_nodes = compute_global_nodes(region, graph, analysis)
        calc_spill_costs(region, graph, analysis, spilled_here, global_nodes)
        result = color_graph(graph, ctx.k, global_nodes, optimistic=ctx.optimistic)

        if result.succeeded:
            summary = combine(graph, result)
            if region is ctx.func.entry:
                ctx.final_graph = graph
                ctx.final_coloring = result
            for sub in region.subregions():
                sub_graph = ctx.sub_graphs.pop(id(sub), None)
                if sub_graph is not None and sub.is_loop:
                    ctx.save_loop_graph(sub, sub_graph)
            return summary

        victims: List[Reg] = []
        for node in result.spilled:
            victims.extend(sorted(node.members))
        for victim in victims:
            if victim in spilled_here:
                raise AllocationError(
                    f"{ctx.func.name}: register {victim} selected for spilling "
                    f"twice in region {region.name} (k={ctx.k})"
                )
        ctx.log_spill(region, victims)
        for victim in victims:
            new_names = _spill_one(ctx, region, victim)
            spilled_here.add(victim)
            spilled_here.update(new_names)

    raise AllocationError(
        f"{ctx.func.name}: region {region.name} did not converge after "
        f"{round_budget} rounds (k={ctx.k})"
    )


def _spill_one(ctx, region: Region, victim: Reg) -> Set[Reg]:
    """Spill (or rematerialize) one register; report the fresh names."""
    if ctx.remat and victim not in ctx.remat_temps:
        from ..remat import (
            constant_registers,
            rematerialize_pdg,
            sweep_dead_defs_pdg,
        )

        constants = constant_registers(ctx.planning_analysis().linear.instrs)
        if victim in constants:
            temps = rematerialize_pdg(ctx.func, victim, constants[victim])
            ctx.patch_graphs_for_remat(victim, temps)
            if sweep_dead_defs_pdg(ctx.func):
                ctx.purge_unreferenced_members()
            ctx.remat_temps |= temps
            ctx.remat_log.append((victim, constants[victim]))
            # Rematerialization deletes instructions (the dead-def sweep),
            # so the round snapshot is structurally stale: drop it rather
            # than let same-round planning reuse it.
            ctx.invalidate_analysis()
            ctx.mark_dirty()
            return temps
    before = ctx.known_renames()
    spill_register(ctx, region, victim)
    return ctx.known_renames() - before
