"""Spill-cost calculation for one region's graph (paper Figure 5).

The algorithm, verbatim from the paper:

* nodes whose registers are all local to a single subregion, or contain a
  register already spilled in this region, get cost 999999 — "spilling
  these virtual registers will not help to make the graph colorable";
* otherwise cost starts at the number of references in the *parent
  region's* code (a load before each use, a store after each definition);
* plus one for each subregion the register enters live-and-used
  (a load would be needed there) and one for each subregion it leaves
  live-and-defined (a store would be needed);
* the degree of every node is incremented once for every *other* node
  that does not interfere with it but contains a register global to the
  region when this node does too (the global/global coloring constraint);
* finally each cost is divided by that adjusted degree.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ...ir.iloc import Reg
from ...pdg.liveness import FunctionAnalysis
from ...pdg.nodes import Region
from ..coloring import INFINITE_COST, effective_degree
from ..interference import IGNode, InterferenceGraph


def calc_spill_costs(
    region: Region,
    graph: InterferenceGraph,
    analysis: FunctionAnalysis,
    spilled_here: Set[Reg],
    global_nodes: Set[IGNode],
) -> None:
    """Attach ``spill_cost`` to every node of ``graph`` (Figure 5).

    The per-subregion sets come from the snapshot, which carries them over
    from the previous round for every subregion the spill did not touch.
    """
    subregions = analysis.subregions(region)

    # Per-subregion boundary sets:
    #   Livein_Ri  = live on entrance to Ri and *used* in Ri
    #   Liveout_Ri = live on exit from Ri and *defined* in Ri
    boundaries = [analysis.live_in(sub) & analysis.used(sub) for sub in subregions]
    boundaries += [
        analysis.live_out(sub) & analysis.defined(sub) for sub in subregions
    ]

    # Initialization: protect hopeless spill candidates.
    homes = analysis.home_subregions(region, graph.registers())
    for node in graph.nodes:
        if not spilled_here.isdisjoint(node.members):
            node.spill_cost = INFINITE_COST
        elif subregions and _local_to_one_subregion(node, homes):
            node.spill_cost = INFINITE_COST
        else:
            node.spill_cost = 0.0

    # References in the parent region's own code.
    for instr in region.direct_instrs():
        for reg in instr.regs():
            node = graph.node_of(reg)
            if node is not None:
                node.spill_cost += 1

    # Loads/stores that a spill would force on subregion boundaries: one
    # per boundary set a node's registers appear in.
    for boundary in boundaries:
        touched = {graph.node_of(reg) for reg in boundary}
        touched.discard(None)
        for node in touched:
            node.spill_cost += 1

    # Divide by the (global/global-adjusted) degree.
    for node in graph.nodes:
        node.spill_cost /= max(effective_degree(node, global_nodes), 1)


def _local_to_one_subregion(
    node: IGNode, homes: Dict[Reg, Optional[Region]]
) -> bool:
    """Whether every register of ``node`` is local to one and the same
    subregion (``homes``: see ``FunctionAnalysis.home_subregions``; a
    register without references is local to all of them)."""
    found = {homes[reg] for reg in node.members if reg in homes}
    return len(found) <= 1 and None not in found


def compute_global_nodes(
    region: Region, graph: InterferenceGraph, analysis: FunctionAnalysis
) -> Set[IGNode]:
    """Nodes containing a register that is global to ``region``.

    A region-level invariant keeps at most one global register per merged
    node, so "the node's global register" is well defined.
    """
    return {
        node
        for node in graph.nodes
        if any(analysis.is_global_to(reg, region) for reg in node.members)
    }
