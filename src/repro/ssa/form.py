"""The SSA IR wrapper: phi nodes plus renamed linear code.

``SSAForm`` is not a new instruction set.  The linear ``Instr`` list is
ordinary iloc renamed in place; phi nodes live alongside it in a
per-block side table, keyed by the CFG block index.  That keeps every
downstream consumer (liveness, the spiller, destruction) working over
the same ``cfg``/``iloc`` machinery as the other allocators, and means
out-of-SSA destruction only has to delete the side table and insert
copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..cfg.dominators import DominatorTree
from ..cfg.graph import CFG
from ..ir.iloc import Instr, Reg, vreg


class SSAError(RuntimeError):
    """Raised when SSA construction or destruction cannot proceed."""


@dataclass
class Phi:
    """A phi node at the top of block ``block``: ``dest = phi(args)``.

    ``args`` maps *predecessor block index* to the SSA value flowing in
    along that edge.  ``origin`` is the pre-SSA register the phi merges.
    """

    dest: Reg
    block: int
    origin: Reg
    args: Dict[int, Reg] = field(default_factory=dict)

    def clone(self) -> "Phi":
        return Phi(self.dest, self.block, self.origin, dict(self.args))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"B{pred}:{value}" for pred, value in sorted(self.args.items())
        )
        return f"{self.dest} = phi({parts})"


# Def-site kinds stored in SSAForm.def_site.
DEF_INSTR = "instr"  # (DEF_INSTR, position in code)
DEF_PHI = "phi"  # (DEF_PHI, block index)
DEF_ENTRY = "entry"  # (DEF_ENTRY, -1): undef value, live from entry


class SSAForm:
    """Linear iloc code in SSA form plus the phi side table.

    Mutating passes (the spiller) insert plain instructions into
    ``code`` and must call :meth:`refresh` afterwards; block indices
    stay stable because insertions never add labels or branches.
    """

    def __init__(self, func_name: str, code: List[Instr], next_index: int):
        self.func_name = func_name
        self.code = code
        self.phis: Dict[int, List[Phi]] = {}
        #: SSA value -> the pre-SSA register it renames.
        self.origin: Dict[Reg, Reg] = {}
        #: SSA value -> (kind, position/block) of its unique definition.
        self.def_site: Dict[Reg, Tuple[str, int]] = {}
        #: Values that may not be spilled (spill temps, undef values).
        self.unspillable: Set[Reg] = set()
        #: Values with no definition (use before def on some path).
        self.undef: Set[Reg] = set()
        #: Aligned clone of ``code`` taken just before renaming; position
        #: ``i`` here is the pre-SSA image of ``code[i]`` at construction
        #: time (renaming never inserts or deletes instructions).
        self.pre_ssa: List[Instr] = []
        self._next_index = next_index
        self.cfg = CFG(code)
        self.dom = DominatorTree(self.cfg)

    # ------------------------------------------------------------------
    # value management

    def new_value(self, origin: Reg) -> Reg:
        value = vreg(self._next_index)
        self._next_index += 1
        self.origin[value] = origin
        return value

    @property
    def next_index(self) -> int:
        return self._next_index

    def values(self) -> List[Reg]:
        """Every SSA value, in index order."""
        return sorted(self.origin, key=lambda reg: reg.index)

    def phi_dests(self, block_index: int) -> Set[Reg]:
        return {phi.dest for phi in self.phis.get(block_index, ())}

    # ------------------------------------------------------------------
    # structure maintenance

    def refresh(self) -> None:
        """Recompute CFG, dominators, and instruction def positions after
        ``code`` was mutated.  Phi block indices survive because the
        spiller only inserts non-label, non-branch instructions."""
        self.cfg = CFG(self.code)
        self.dom = DominatorTree(self.cfg)
        site: Dict[Reg, Tuple[str, int]] = {}
        for value in self.undef:
            site[value] = (DEF_ENTRY, -1)
        for block_index, phis in self.phis.items():
            for phi in phis:
                site[phi.dest] = (DEF_PHI, block_index)
        for position, instr in enumerate(self.code):
            for dst in instr.defs:
                if dst in site:
                    raise SSAError(
                        f"{self.func_name}: value {dst} defined more than once"
                    )
                site[dst] = (DEF_INSTR, position)
        self.def_site = site

    def clone_phis(self) -> Dict[int, List[Phi]]:
        return {
            block: [phi.clone() for phi in phis]
            for block, phis in self.phis.items()
        }

    def check(self) -> None:
        """Structural SSA invariants; raises :class:`SSAError`.

        This is the subsystem's own cheap self-check (single defs, phi
        arity, known values).  The independent post-allocation recheck
        lives in :mod:`repro.resilience.validators`.
        """
        blocks = {block.index: block for block in self.cfg.blocks}
        for block_index, phis in self.phis.items():
            block = blocks.get(block_index)
            if block is None:
                raise SSAError(
                    f"{self.func_name}: phi block B{block_index} does not exist"
                )
            pred_indices = {pred.index for pred in block.preds}
            for phi in phis:
                if set(phi.args) != pred_indices:
                    raise SSAError(
                        f"{self.func_name}: phi {phi.dest} arity mismatch in "
                        f"B{block_index}: args for {sorted(phi.args)} vs "
                        f"preds {sorted(pred_indices)}"
                    )
                for value in phi.args.values():
                    if value.is_virtual and value not in self.origin:
                        raise SSAError(
                            f"{self.func_name}: phi arg {value} is not an SSA value"
                        )
        for instr in self.code:
            for reg in instr.regs():
                if reg.is_virtual and reg not in self.origin:
                    raise SSAError(
                        f"{self.func_name}: register {reg} in '{instr}' is not "
                        "an SSA value"
                    )
        # Every non-undef value has exactly one def site (refresh raised
        # on duplicates; here we catch values with none at all).
        for value in self.origin:
            if value not in self.def_site:
                raise SSAError(
                    f"{self.func_name}: value {value} has no definition"
                )

