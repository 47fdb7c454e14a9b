"""Forward list scheduling over basic blocks.

A classic critical-path list scheduler for the in-order single-issue
pipeline of :mod:`.pipeline`: ready instructions are issued
highest-priority first (priority = longest latency path to the block end),
breaking ties by original program order to keep the output deterministic
and the diff against the input small.

The scheduler never moves instructions across block boundaries (the
paper's *local* scheduling level; its global region scheduling references
[19, 2] move code between blocks, which is beyond this substrate's
charter) and never reorders observable operations (prints, calls,
argument pushes), so scheduled code is behaviourally identical — a
property the test suite checks by differential execution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..cfg.graph import CFG
from ..ir.iloc import Instr, Op
from ..resilience import faults
from .dag import BlockDag
from .latency import LatencyModel


@dataclass
class ScheduleReport:
    """Static schedule-quality numbers for one function body."""

    blocks: int = 0
    moved_instructions: int = 0
    length_before: int = 0
    length_after: int = 0


def schedule_block(
    code: Sequence[Instr], model: LatencyModel, function: str = "?"
) -> Tuple[List[Instr], int, int]:
    """Schedule one straight-line block.

    Returns ``(new_order, length_before, length_after)`` where the lengths
    are in-order single-issue completion times under ``model``.
    ``function`` names the enclosing function for fault-injection probes
    and diagnostics.
    """
    body = list(code)
    if len(body) <= 1:
        length = simulate_block(body, model)
        return body, length, length

    dag = BlockDag(body, model)
    indegree = [len(node.preds) for node in dag.nodes]
    earliest = [0] * len(body)
    #: dependence-free instructions, keyed for deterministic best-first pick
    ready: List[Tuple[int, int]] = []
    for node in dag.nodes:
        if indegree[node.index] == 0:
            heapq.heappush(ready, (-node.priority, node.index))

    order: List[Instr] = []
    clock = 0
    while ready:
        # Cycle-aware selection: among dependence-free instructions whose
        # operands are available by `clock`, issue the one with the longest
        # critical path; if none is available yet, a lower-priority ready
        # instruction fills the stall slot — that is the whole point of
        # list scheduling.
        available = [entry for entry in ready if earliest[entry[1]] <= clock]
        if not available:
            clock = min(earliest[index] for _, index in ready)
            continue
        best = min(available)
        ready.remove(best)
        heapq.heapify(ready)
        _, index = best
        order.append(body[index])
        issue = max(clock, earliest[index])
        for succ, latency in sorted(dag.nodes[index].succs.items()):
            earliest[succ] = max(earliest[succ], issue + latency)
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (-dag.nodes[succ].priority, succ))
        clock = issue + 1

    assert len(order) == len(body), "scheduler dropped instructions"
    before = simulate_block(body, model)
    after = simulate_block(order, model)
    if after > before:
        # The heuristic is not optimal; never accept a regression.
        order, after = list(body), before
    if faults.active() is not None:
        # Injected scheduler bug: emit an order violating one DAG edge.
        faults.maybe_swap_dependent("sched.reorder-dependent", function, order)
    return order, before, after


def simulate_block(
    code: Sequence[Instr], model: LatencyModel, issue_width: int = 1
) -> int:
    """Completion time of a block on an in-order pipeline.

    Each instruction issues at the earliest cycle at which (a) all of its
    register operands are available, (b) a slot is free (at most
    ``issue_width`` instructions issue per cycle), and (c) program order
    is respected (in-order issue).  Its result becomes available
    ``latency`` cycles after issue.  Memory and observable-order
    constraints are respected by construction (the input order already
    satisfies them).
    """
    available = {}
    issued_at: dict = {}
    last_issue = -1
    finish = 0
    for instr in code:
        if instr.op is Op.LABEL:
            continue
        start = max(last_issue, 0)
        if issued_at.get(start, 0) >= issue_width:
            start += 1
        for reg in instr.uses:
            start = max(start, available.get(reg, 0))
        while issued_at.get(start, 0) >= issue_width:
            start += 1
        latency = model.of(instr)
        for reg in instr.defs:
            available[reg] = start + latency
        issued_at[start] = issued_at.get(start, 0) + 1
        last_issue = start
        finish = max(finish, start + latency)
    return max(last_issue + 1, finish)


def schedule_code(
    code: Sequence[Instr], model: LatencyModel = None, function: str = "?"
) -> Tuple[List[Instr], ScheduleReport]:
    """Schedule every basic block of a linear function body."""
    model = model or LatencyModel()
    code = list(code)
    cfg = CFG(code)
    report = ScheduleReport()
    out: List[Instr] = []
    for block in cfg.blocks:
        body = code[block.start:block.end]
        # Keep leading labels pinned.
        head: List[Instr] = []
        while body and body[0].op is Op.LABEL:
            head.append(body.pop(0))
        scheduled, before, after = schedule_block(body, model, function)
        report.blocks += 1
        report.length_before += before
        report.length_after += after
        report.moved_instructions += sum(
            1 for a, b in zip(body, scheduled) if a is not b
        )
        out.extend(head)
        out.extend(scheduled)
    return out, report
