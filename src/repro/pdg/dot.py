"""Graphviz (DOT) export of a PDG.

Renders the region hierarchy (control dependence, solid edges, labelled T/F
out of predicates) and optionally the register flow dependences (dashed
edges), reproducing the visual vocabulary of the paper's Figure 1.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.iloc import Instr
from .datadeps import flow_dependences
from .graph import PDGFunction
from .liveness import FunctionAnalysis
from .nodes import Predicate, Region


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(
    func: PDGFunction,
    include_code: bool = True,
    include_data_deps: bool = False,
) -> str:
    """Serialize the function's PDG as a DOT digraph."""
    lines: List[str] = [
        f'digraph "{_escape(func.name)}" {{',
        "  rankdir=TB;",
        '  node [fontname="Helvetica"];',
    ]
    instr_node: Dict[int, str] = {}
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def emit_region(region: Region) -> str:
        shape = "ellipse"
        label = region.name
        if region.is_loop:
            label += " (loop)"
        if region.note:
            label += f"\\n{_escape(region.note)}"
        name = f"R{region.id}"
        lines.append(f'  {name} [label="{label}", shape={shape}];')
        for item in region.items:
            if isinstance(item, Instr):
                if not include_code:
                    continue
                node = fresh("S")
                instr_node[id(item)] = node
                lines.append(
                    f'  {node} [label="{_escape(str(item))}", shape=box];'
                )
                lines.append(f"  {name} -> {node};")
            elif isinstance(item, Predicate):
                pred = fresh("P")
                lines.append(
                    f'  {pred} [label="{_escape(str(item.cond))}?", '
                    f"shape=diamond];"
                )
                instr_node[id(item.branch)] = pred
                lines.append(f"  {name} -> {pred};")
                if item.true_region is not None:
                    child = emit_region(item.true_region)
                    lines.append(f'  {pred} -> {child} [label="T"];')
                if item.false_region is not None:
                    child = emit_region(item.false_region)
                    lines.append(f'  {pred} -> {child} [label="F"];')
            else:
                child = emit_region(item)
                lines.append(f"  {name} -> {child};")
        return name

    emit_region(func.entry)

    if include_data_deps and include_code:
        analysis = FunctionAnalysis(func)
        for dep in flow_dependences(analysis):
            src = instr_node.get(id(dep.source))
            dst = instr_node.get(id(dep.sink))
            if src and dst and src != dst:
                lines.append(
                    f'  {src} -> {dst} [style=dashed, color=gray, '
                    f'label="{_escape(str(dep.reg))}"];'
                )
    lines.append("}")
    return "\n".join(lines)
