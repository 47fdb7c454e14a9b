"""The allocator fallback ladder.

When an allocator crashes, fails validation, or miscompiles,
:func:`walk_ladder` retries the same program and k with the next-simpler
allocator, recording the degradation.  Its two callers are the benchmark
harness (``Harness.run``) and the service worker (``compile_cold``).
The ladder is ordered by ambition:

    rap -> gra -> ssaspill -> linearscan -> spillall

RAP (the paper's contribution) falls back to GRA (the paper's baseline),
which falls back to the SSA spill-then-color rung (decoupled phases over
a chordal interference graph — its coloring provably cannot fail, so
only its spill phase can), which falls back to linear scan (no
interference graph, intervals only — reduced precision, real register
lifetimes), which falls back to the trivial spill-everywhere allocation
— which cannot fail for any k >= 3, because it performs no analysis at
all.  A sweep therefore always completes; the output reports *which*
cells are degraded instead of the whole table dying on the first bad
cell.  Every rung re-runs the full validate stage, so a fallback result
is held to the same proof obligations as a first-choice one.  This
module imports nothing from the compiler (the service daemon loads it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TypeVar

from .errors import StageError

T = TypeVar("T")

#: allocator -> the allocators to try next; keys in ladder order.
FALLBACK_CHAIN: Dict[str, Tuple[str, ...]] = {
    "rap": ("gra", "ssaspill", "linearscan", "spillall"),
    "gra": ("ssaspill", "linearscan", "spillall"),
    "ssaspill": ("linearscan", "spillall"),
    "linearscan": ("spillall",),
    "spillall": (),
}


def chain_for(allocator: str) -> List[str]:
    """The full attempt order starting at ``allocator``."""
    if allocator not in FALLBACK_CHAIN:
        raise ValueError(f"unknown allocator {allocator!r}")
    return [allocator, *FALLBACK_CHAIN[allocator]]


@dataclass(frozen=True)
class FallbackEvent:
    """One rung abandoned: which allocator failed, at which stage, why."""

    allocator: str
    stage: str
    reason: str

    def __str__(self) -> str:
        return f"{self.allocator} failed at {self.stage}: {self.reason}"

    def as_dict(self) -> Dict[str, str]:
        return {
            "allocator": self.allocator,
            "stage": self.stage,
            "reason": self.reason,
        }


def walk_ladder(
    allocator: str,
    attempt: Callable[[str], T],
    *,
    fallback: bool = True,
) -> Tuple[T, str, List[FallbackEvent]]:
    """Call ``attempt(rung)`` down the ladder from ``allocator`` until one
    returns; returns ``(value, rung used, abandoned rungs)``.  A
    :class:`StageError` moves on to the next rung, except on the last
    rung, where it propagates.  ``fallback=False`` tries ``allocator``
    alone."""
    rungs = chain_for(allocator)
    if not fallback:
        rungs = rungs[:1]
    events: List[FallbackEvent] = []
    for rung in rungs[:-1]:
        try:
            return attempt(rung), rung, events
        except StageError as err:
            events.append(FallbackEvent(rung, err.stage, err.message))
    return attempt(rungs[-1]), rungs[-1], events
