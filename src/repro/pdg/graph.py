"""Containers for whole functions and modules in PDG form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple, Union

from ..ir.iloc import Instr, Reg, vreg
from .nodes import Predicate, Region


@dataclass
class GlobalVar:
    """A module-level variable.

    Global scalars are memory resident (accessed with ``ldm``/``stm`` on a
    ``global``-space symbol); global arrays live in the data heap and code
    obtains their base address with ``loada``.
    """

    name: str
    base_type: str
    dims: List[int] = field(default_factory=list)
    init: Union[int, float, None] = None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def size(self) -> int:
        total = 1
        for extent in self.dims:
            total *= extent
        return total


@dataclass
class ParamInfo:
    """A formal parameter of a PDG function and the register receiving it."""

    name: str
    reg: Reg
    base_type: str
    is_array: bool = False


class PDGFunction:
    """One function: an entry region plus register bookkeeping.

    ``entry`` is the function's entry region node — the root of the region
    hierarchy ("The interference graph for the entry region of the PDG has
    nodes to represent every virtual register referenced in the PDG and the
    register assignment is done at this level", §3.1).
    """

    def __init__(self, name: str, ret_type: str, params: List[ParamInfo]):
        self.name = name
        self.ret_type = ret_type
        self.params = params
        self.entry = Region(kind="entry", note=f"entry of {name}")
        self._next_vreg = 0
        #: monotonic mutation counter: every mutation entry point (spill
        #: insertion, rematerialization, dead-def sweeps, spill-code
        #: motion, coalescing, the final physical rewrite) bumps it, so
        #: analysis caches can key on "has the code actually changed"
        #: instead of a coarse dirty flag.
        self.version = 0

    def bump_version(self) -> int:
        """Record one mutation of the region tree or its instructions."""
        self.version += 1
        return self.version

    # -- register management -----------------------------------------------

    def new_vreg(self) -> Reg:
        reg = vreg(self._next_vreg)
        self._next_vreg += 1
        return reg

    def reserve_vregs(self, count: int) -> None:
        """Make sure the next ``new_vreg`` index is at least ``count``."""
        self._next_vreg = max(self._next_vreg, count)

    # -- structure queries ----------------------------------------------------

    def walk_regions(self) -> Iterator[Region]:
        return self.entry.walk_regions()

    def walk_instrs(self) -> Iterator[Instr]:
        return self.entry.walk_instrs()

    def referenced_regs(self) -> Set[Reg]:
        return self.entry.referenced_regs()

    def parent_map(self) -> Dict[Region, Tuple[Region, int]]:
        """Map each region to ``(parent_region, index_of_its_item)``.

        For a region hanging off a predicate, the index is that of the
        predicate item in the parent's list.
        """
        parents: Dict[Region, Tuple[Region, int]] = {}
        for region in self.walk_regions():
            for index, item in enumerate(region.items):
                if isinstance(item, Region):
                    parents[item] = (region, index)
                elif isinstance(item, Predicate):
                    for sub in item.regions():
                        parents[sub] = (region, index)
        return parents

    def instr_locations(self) -> Dict[int, Tuple[Region, int]]:
        """Map ``id(instr)`` to ``(owning_region, item_index)``.

        Predicate branch instructions map to the predicate's item position
        in the owning region.  Rebuild after structural edits.
        """
        locations: Dict[int, Tuple[Region, int]] = {}
        for region in self.walk_regions():
            for index, item in enumerate(region.items):
                if isinstance(item, Instr):
                    locations[id(item)] = (region, index)
                elif isinstance(item, Predicate):
                    locations[id(item.branch)] = (region, index)
        return locations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PDGFunction {self.name}>"


class Module:
    """A compiled Mini-C translation unit in PDG form."""

    def __init__(self) -> None:
        self.globals: Dict[str, GlobalVar] = {}
        self.functions: Dict[str, PDGFunction] = {}

    def add_global(self, var: GlobalVar) -> None:
        self.globals[var.name] = var

    def add_function(self, func: PDGFunction) -> None:
        self.functions[func.name] = func

    def function(self, name: str) -> PDGFunction:
        return self.functions[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module globals={sorted(self.globals)} "
            f"functions={sorted(self.functions)}>"
        )
