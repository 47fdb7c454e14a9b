"""Execution statistics collected by the iloc interpreter.

Table 1 of the paper reports the percentage decrease in *total executed
cycles* (at one cycle per instruction) between GRA- and RAP-allocated
code, decomposed into the portions attributable to loads, stores, and
copy statements.  These counters are exactly what is needed to rebuild
that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Counters:
    """Instruction counters for one scope (whole program or one routine)."""

    cycles: int = 0
    loads: int = 0
    stores: int = 0
    copies: int = 0

    def add(self, other: "Counters") -> None:
        self.cycles += other.cycles
        self.loads += other.loads
        self.stores += other.stores
        self.copies += other.copies

    def as_dict(self) -> Dict[str, int]:
        return {
            "cycles": self.cycles,
            "loads": self.loads,
            "stores": self.stores,
            "copies": self.copies,
        }


@dataclass
class ExecStats:
    """Result of one program execution."""

    total: Counters = field(default_factory=Counters)
    #: per-routine counters (cycles spent inside each function body,
    #: excluding its callees) — this is how the paper reports e.g. the
    #: Stanford routines ``fit``, ``place``, ``trial`` individually.
    per_function: Dict[str, Counters] = field(default_factory=dict)
    output: list = field(default_factory=list)
    #: which interpreter tier executed the run ("slow"/"compiled");
    #: excluded from equality — the whole point of the tiers is that runs
    #: on different ones compare equal on every observable counter.
    interp_tier: "str | None" = field(default=None, compare=False)

    def function(self, name: str) -> Counters:
        if name not in self.per_function:
            self.per_function[name] = Counters()
        return self.per_function[name]
