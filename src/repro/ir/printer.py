"""Human-readable listings of iloc code and PDG structure.

Used by the examples, by failing-test diagnostics, and by anyone poking at
the compiler interactively.
"""

from __future__ import annotations

from typing import List, Sequence

from ..pdg.graph import PDGFunction
from ..pdg.nodes import Predicate, Region
from .iloc import Instr, Op


def format_code(code: Sequence[Instr]) -> str:
    """Linear code with labels outdented."""
    lines: List[str] = []
    for instr in code:
        if instr.op is Op.LABEL:
            lines.append(f"{instr.label}:")
        else:
            lines.append(f"    {instr}")
    return "\n".join(lines)


def format_region(region: Region, indent: int = 0) -> str:
    """An indented tree view of a region and its code."""
    pad = "  " * indent
    flavor = " (loop)" if region.is_loop else ""
    note = f"  ; {region.note}" if region.note else ""
    lines = [f"{pad}{region.name}{flavor} [{region.kind}]{note}"]
    for item in region.items:
        if isinstance(item, Instr):
            lines.append(f"{pad}  {item}")
        elif isinstance(item, Predicate):
            lines.append(f"{pad}  if {item.cond}:")
            if item.true_region is not None:
                lines.append(format_region(item.true_region, indent + 2))
            if item.false_region is not None:
                lines.append(f"{pad}  else:")
                lines.append(format_region(item.false_region, indent + 2))
        else:
            lines.append(format_region(item, indent + 1))
    return "\n".join(lines)


def format_function(func: PDGFunction) -> str:
    """The whole function as a region tree."""
    params = ", ".join(f"{p.name}={p.reg}" for p in func.params)
    header = f"function {func.name}({params}) -> {func.ret_type}"
    return header + "\n" + format_region(func.entry, indent=1)
