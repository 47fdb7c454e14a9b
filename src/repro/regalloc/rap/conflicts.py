"""Interference-graph construction for one region (paper §3.1.1).

Two steps, exactly as in the paper:

``add_region_conflicts``
    builds the part of the graph contributed by the *parent region's own*
    intermediate code — plus the RAP-specific rule that "adds an
    interference between any two virtual registers that are live on
    entrance to the parent region and referenced within the region"
    (restricted here, as in Figure 3, to registers that appear in the
    parent's code; live-in registers referenced only in subregions are
    handled by the first loop of ``add_subregion_conflicts``).  Registers
    that are live through the region but never referenced in it are
    deliberately **omitted** so that referenced registers get coloring
    priority (the paper's ``d`` example in Figure 3).

``add_subregion_conflicts``
    Figure 4: imports each subregion's *combined* graph (each of whose
    nodes may stand for several virtual registers the subregion allocation
    decided can share a register), merging nodes that contain the same
    register, then adds the "live but not referenced here" interferences
    in both directions.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ...ir.iloc import Reg
from ...pdg.liveness import FunctionAnalysis
from ...pdg.nodes import Region
from ..interference import IGNode, InterferenceGraph


def add_region_conflicts(
    region: Region, graph: InterferenceGraph, analysis: FunctionAnalysis
) -> None:
    """Populate ``graph`` from the parent region's directly attached code."""
    direct = region.direct_instrs()
    direct_refs: Set[Reg] = set()
    # Nodes enter the graph in first-reference program order; the coloring
    # pass relies on that order for its copy-aligning first-fit behaviour.
    for instr in direct:
        for reg in instr.regs():
            if reg not in direct_refs:
                direct_refs.add(reg)
                graph.ensure(reg)

    # Edge order is immaterial (adjacency is a set); only node order is.
    for instr in direct:
        defined = instr.dst
        if defined is None:
            continue
        node = graph.node_of(defined)
        others = analysis.live_after(instr) & direct_refs
        others.discard(defined)
        if instr.is_copy:
            others.discard(instr.srcs[0])
        for other in others:
            graph.add_node_edge(node, graph.node_of(other))

    # Live on entrance to the parent region and referenced in its code:
    # pairwise interference (the RAP addition to the standard technique).
    live_in = analysis.live_in(region)
    boundary = sorted(live_in & direct_refs)
    for i, first in enumerate(boundary):
        for second in boundary[i + 1:]:
            graph.add_edge(first, second)


def add_subregion_conflicts(
    region: Region,
    graph: InterferenceGraph,
    sub_graphs: Dict[int, InterferenceGraph],
    analysis: FunctionAnalysis,
) -> None:
    """Incorporate subregion graphs into the parent's graph (Figure 4).

    ``sub_graphs`` maps ``id(subregion)`` to that subregion's combined
    interference graph (at most k nodes).
    """
    subregions = analysis.subregions(region)

    # Vars = registers referenced in the parent's code or any subregion.
    vars_: Set[Reg] = set()
    for instr in region.direct_instrs():
        vars_.update(instr.regs())
    for sub in subregions:
        vars_ |= analysis.referenced(sub)

    # First loop of Figure 4: registers live into the region, referenced
    # somewhere in it, but absent from the graph so far (i.e. referenced
    # only inside subregions) interfere with everything currently present
    # — including each other, since each is added to the graph in turn.
    live_in = analysis.live_in(region)
    for reg in sorted(live_in & vars_):
        if reg in graph:
            continue
        existing = list(graph.nodes)
        node = graph.ensure(reg)
        for other in existing:
            graph.add_node_edge(node, other)

    # Second loop: merge in each subregion's combined graph and add the
    # boundary interferences for registers live into (but not referenced
    # in) that subregion.
    for sub in subregions:
        sub_graph = sub_graphs.get(id(sub))
        if sub_graph is None:
            continue
        image = _import_graph(graph, sub_graph)
        outsiders = (analysis.live_in(sub) & vars_) - analysis.referenced(sub)
        for reg in sorted(outsiders):
            outsider = graph.ensure(reg)
            for node in image:
                if node is not outsider:
                    graph.add_node_edge(outsider, node)


def _import_graph(
    graph: InterferenceGraph, sub_graph: InterferenceGraph
) -> List[IGNode]:
    """Merge ``sub_graph`` (nodes and edges) into ``graph``.

    Returns the parent-graph nodes that now stand for the subregion's
    nodes.  Nodes sharing a register are merged — this is how a subregion
    node "is combined with one of the parent's nodes if the nodes
    correspond to the same virtual register".
    """
    image: Dict[int, IGNode] = {}
    for node in sorted(sub_graph.nodes, key=IGNode.sort_key):
        image[node.id] = graph.add_group(sorted(node.members))
    for node in sub_graph.nodes:
        for neighbor in node.adj:
            graph.add_node_edge(image[node.id], image[neighbor.id])
    return list(dict.fromkeys(image.values()))
