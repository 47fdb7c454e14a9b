"""Deterministic fault injection for the allocators.

The verification-plus-fallback safety net is itself code, and untested
safety code is decoration.  This module plants *probe points* inside the
allocators — places where a realistic allocator bug can be switched on
deliberately — so the test suite can prove that each class of corruption
is (a) caught by structural validation rather than by output divergence,
and (b) contained by the harness's fallback chain.

Probes are disabled by default and cost one module-attribute check when
off.  A :class:`FaultPlan` is installed globally (the allocators are
deterministic single-threaded code; a plan is active for the dynamic
extent of one test or one CLI invocation) and every firing is recorded so
tests can assert a probe actually triggered.

Probe points
------------

``gra.interference.drop-edge``
    Remove one edge from GRA's freshly built interference graph (the two
    highest-degree adjacent nodes).  Models a liveness/interference bug;
    the coloring may then share one physical register between two
    simultaneously live values.  Caught by ``check_assignment``.
``gra.spill.corrupt-slot``
    Rename the spill slot used by GRA's spill *loads* (stores keep the
    real slot).  Models a slot-naming bug; every load of the corrupt slot
    reads memory no store initializes.  Caught by
    ``check_spill_discipline``.
``rap.region.drop-edge``
    Remove one edge from a region's interference graph during RAP's
    bottom-up walk.  Caught by ``check_assignment``.
``rap.spill.corrupt-slot``
    Rename the slot used by the loads of one RAP spill event.  Caught by
    ``check_spill_discipline``.
``rap.region.raise``
    Raise :class:`FaultInjected` at a region boundary (on entry to the
    per-region allocation loop).  Models an outright allocator crash;
    contained by the fallback chain, no validation needed.
``rap.motion.drop-store``
    Suppress the trailing store a spill-code hoist must insert after a
    loop that wrote the slot.  Models a lost-update motion bug; the loop's
    final value never reaches memory.  Caught by the motion validator
    (the recomputed hoist requires the post-loop store).
``rap.motion.wrong-reg``
    Hoist the pre-loop preload into the wrong physical register (the
    carried color plus one, mod k).  Models a color-bookkeeping motion
    bug; the loop body reads a register the preload never wrote.  Caught
    by the motion validator (the preload must target the single register
    carrying the slot's traffic).
``rap.peephole.stale-holder``
    Skip one holder-map invalidation when a register is redefined inside
    the Figure-6 peephole.  Models a stale-availability bug; a later load
    of the address is deleted even though the register no longer mirrors
    memory.  Caught by the peephole validator (symbolic before/after
    execution of the block disagrees).
``sched.reorder-dependent``
    Swap the first adjacent dependent pair in a scheduled block's emitted
    order.  Models a dropped DAG edge in the scheduler; the emitted order
    is no longer a topological order of the block's dependences.  Caught
    by the scheduler validator.
``ssa.rename.stale-def``
    During SSA renaming, resolve one use to the *second* entry of the
    renaming stack — a definition shadowed (and therefore killed on
    every path) by the one on top.  Models a stack-discipline bug in
    construction.  Caught by the SSA-construction validator, which
    cross-checks every use against independently computed reaching
    definitions of the original register.
``ssa.destruct.lost-copy``
    While sequentializing one parallel copy during out-of-SSA
    destruction, emit the move that closes a permutation cycle without
    first saving the value its destination holds — the textbook
    lost-copy bug.  Caught by the destruction validator's symbolic
    replay of the edge's copy window.
``ssaspill.color.clash``
    Give one SSA value a color already assigned to an interfering
    neighbor during the chordal greedy coloring.  Models a broken
    interference or elimination-order bug.  Caught by the independent
    chordal-coloring recheck.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Tuple

#: Registry of every probe point with a one-line description (rendered by
#: ``python -m repro faults``).
PROBE_POINTS: Dict[str, str] = {
    "gra.interference.drop-edge": (
        "drop one edge from GRA's interference graph (liveness bug)"
    ),
    "gra.spill.corrupt-slot": (
        "corrupt the slot name of GRA spill loads (slot-naming bug)"
    ),
    "rap.region.drop-edge": (
        "drop one edge from a RAP region interference graph"
    ),
    "rap.spill.corrupt-slot": (
        "corrupt the slot name of one RAP spill event's loads"
    ),
    "rap.region.raise": "raise at a region boundary inside RAP",
    "rap.motion.drop-store": (
        "drop the trailing store of one spill-code hoist (lost update)"
    ),
    "rap.motion.wrong-reg": (
        "preload one spill-code hoist into the wrong physical register"
    ),
    "rap.peephole.stale-holder": (
        "skip one holder invalidation in the Figure-6 peephole"
    ),
    "sched.reorder-dependent": (
        "swap the first adjacent dependent pair of a scheduled block"
    ),
    "ssa.rename.stale-def": (
        "rename one SSA use to a shadowed (killed) definition"
    ),
    "ssa.destruct.lost-copy": (
        "skip the save when breaking one parallel-copy cycle (lost copy)"
    ),
    "ssaspill.color.clash": (
        "assign one SSA value a color already used by a live neighbor"
    ),
}

#: Suffix appended to a corrupted spill-slot name.  Kept printable so the
#: corruption is visible in ``emit --what alloc`` listings.
CORRUPT_SUFFIX = "!corrupt"


class FaultInjected(RuntimeError):
    """Raised by a ``raise``-type probe; deliberately *not* a subclass of
    any validation or allocation error so tests can tell an injected crash
    from a genuine one."""

    def __init__(self, point: str, function: str):
        super().__init__(f"injected fault at probe {point!r} in {function}")
        self.point = point
        self.function = function


@dataclass(frozen=True)
class FaultSpec:
    """Arms one probe point.

    ``function`` is an ``fnmatch`` pattern on the function being
    allocated (``"*"`` = any).  ``times`` bounds how often the probe
    fires (``None`` = every time it is reached), ``skip`` lets it pass
    the first occurrences through unharmed — together they make firings
    deterministic and addressable ("the second spill in dgefa").
    """

    point: str
    function: str = "*"
    times: Optional[int] = 1
    skip: int = 0

    def __post_init__(self) -> None:
        if self.point not in PROBE_POINTS:
            raise ValueError(
                f"unknown probe point {self.point!r}; known: "
                f"{', '.join(sorted(PROBE_POINTS))}"
            )


@dataclass
class FaultPlan:
    """A set of armed probes plus the firing log."""

    specs: List[FaultSpec] = field(default_factory=list)
    #: (point, function) for every shot actually fired.
    fired: List[Tuple[str, str]] = field(default_factory=list)
    _seen: Dict[int, int] = field(default_factory=dict)

    def should_fire(self, point: str, function: str) -> bool:
        for spec in self.specs:
            if spec.point != point or not fnmatch(function, spec.function):
                continue
            count = self._seen.get(id(spec), 0)
            self._seen[id(spec)] = count + 1
            if count < spec.skip:
                return False
            if spec.times is not None and count - spec.skip >= spec.times:
                return False
            self.fired.append((point, function))
            return True
        return False


#: The active plan; ``None`` keeps every probe dormant.  Checked by the
#: allocators through :func:`active`, so the disabled-path overhead is one
#: global read.
_PLAN: Optional[FaultPlan] = None


def active() -> Optional[FaultPlan]:
    return _PLAN


def install(*specs: FaultSpec) -> FaultPlan:
    """Activate a plan arming ``specs``; returns it for log inspection."""
    global _PLAN
    _PLAN = FaultPlan(list(specs))
    return _PLAN


def clear() -> None:
    global _PLAN
    _PLAN = None


@contextmanager
def injected(*specs: FaultSpec):
    """Context manager: arm ``specs`` for the duration of the block.

    Restores whatever plan (or absence of one) was active before, so
    nested scopes — e.g. a per-probe plan inside a test's outer plan —
    compose instead of clobbering each other.
    """
    global _PLAN
    previous = _PLAN
    plan = install(*specs)
    try:
        yield plan
    finally:
        _PLAN = previous


# ---------------------------------------------------------------------------
# Probe-site helpers (called from inside the allocators)
# ---------------------------------------------------------------------------


def maybe_raise(point: str, function: str) -> None:
    """Raise :class:`FaultInjected` if ``point`` is armed."""
    plan = _PLAN
    if plan is not None and plan.should_fire(point, function):
        raise FaultInjected(point, function)


def maybe_drop_edge(point: str, function: str, graph) -> None:
    """Remove the edge between the two highest-degree adjacent nodes.

    Deterministic: node order is fixed by each node's smallest member
    register.  A graph with no edges leaves the shot unconsumed (the probe
    waits for a graph where the corruption can matter).
    """
    plan = _PLAN
    if plan is None:
        return
    best = None
    for node in graph.nodes:
        for neighbor in node.adj:
            key = (
                node.degree + neighbor.degree,
                max(node.sort_key(), neighbor.sort_key()),
            )
            if best is None or key > best[0]:
                best = (key, node, neighbor)
    if best is None:
        return  # no edges: nothing to corrupt
    if not plan.should_fire(point, function):
        return
    _, node, neighbor = best
    node.adj.discard(neighbor)
    neighbor.adj.discard(node)


def maybe_corrupt_slot(point: str, function: str, name: str) -> str:
    """Return a corrupted variant of a spill-slot name if armed."""
    plan = _PLAN
    if plan is not None and plan.should_fire(point, function):
        return name + CORRUPT_SUFFIX
    return name


def should_fire(point: str, function: str) -> bool:
    """Bare armed-probe query for sites that apply the corruption
    themselves (e.g. skipping an action rather than performing one)."""
    plan = _PLAN
    return plan is not None and plan.should_fire(point, function)


def maybe_wrong_preg(point: str, function: str, color: int, k: int) -> int:
    """Return a *different* valid physical register index if armed."""
    plan = _PLAN
    if plan is not None and plan.should_fire(point, function):
        return (color + 1) % k
    return color


def maybe_swap_dependent(point: str, function: str, order: list) -> None:
    """Swap the first adjacent *dependent* pair of ``order`` in place.

    Dependence here is the cheap sufficient test — register overlap
    (flow/anti/output) or a conflicting memory/observable pair — so the
    swap provably violates the block's dependence DAG.  A block with no
    adjacent dependent pair leaves the shot unconsumed, like
    :func:`maybe_drop_edge`.
    """
    plan = _PLAN
    if plan is None:
        return
    target = None
    for i in range(len(order) - 1):
        if _instrs_dependent(order[i], order[i + 1]):
            target = i
            break
    if target is None:
        return
    if not plan.should_fire(point, function):
        return
    order[target], order[target + 1] = order[target + 1], order[target]


def _instrs_dependent(a, b) -> bool:
    """Sufficient (not exhaustive) dependence test between two adjacent
    instructions — register overlap, same-symbol memory traffic, heap
    store conflicts, or observable order."""
    from ..ir.iloc import Op

    a_defs, b_defs = set(a.defs), set(b.defs)
    a_uses, b_uses = set(a.uses), set(b.uses)
    if a_defs & (b_uses | b_defs) or a_uses & b_defs:
        return True
    mem = (Op.LOAD, Op.STORE, Op.LDM, Op.STM)
    if a.op in mem and b.op in mem:
        if Op.STORE in (a.op, b.op) and {a.op, b.op} <= {Op.LOAD, Op.STORE}:
            return True
        if (
            a.op in (Op.LDM, Op.STM)
            and b.op in (Op.LDM, Op.STM)
            and a.addr is not None
            and b.addr is not None
            and a.addr.name == b.addr.name
            and Op.STM in (a.op, b.op)
        ):
            return True
    ordered = (Op.PRINT, Op.PARAM, Op.CALL, Op.RET, Op.ALLOCA)
    if a.op in ordered and b.op in ordered:
        return True
    return False
