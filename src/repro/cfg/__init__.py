"""Control-flow-graph substrate: basic blocks, liveness, dominators."""

from .graph import CFG, BasicBlock
from .liveness import LivenessResult, compute_liveness
from .dominators import DominatorTree, natural_loops
from .reachdefs import RegChains, chains_for

__all__ = [
    "CFG",
    "BasicBlock",
    "compute_liveness",
    "LivenessResult",
    "DominatorTree",
    "natural_loops",
    "chains_for",
    "RegChains",
]
