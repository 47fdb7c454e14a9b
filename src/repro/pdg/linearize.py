"""Deterministic linearization of a PDG function into branch/label code.

The allocators reason over the PDG but the interpreter (and the baseline
GRA allocator) consume linear iloc.  Linearization **shares instruction
objects with the PDG**: every ``Instr`` attached to a region node appears
by identity in the emitted list, and every predicate node contributes its
persistent ``branch`` instruction.  Dataflow analyses run on the linear
code can therefore be queried per PDG item by object identity, which is
how RAP obtains per-region liveness (live-in/live-out of every region is
just the live set at the region's linear span boundaries — structured
regions occupy contiguous spans).

Only labels and unconditional jumps are freshly created per linearization.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ir.iloc import Instr, Op
from .graph import PDGFunction
from .nodes import Predicate, Region


class LinearCode:
    """The result of linearizing one PDG function."""

    def __init__(self, func: PDGFunction):
        self.func = func
        self.instrs: List[Instr] = []
        #: region -> (start, end) indices; the region's code is
        #: ``instrs[start:end]`` and the position ``end`` is the first
        #: point after the region (so ``live_at[end]`` is its live-out).
        self.region_span: Dict[Region, Tuple[int, int]] = {}
        self._index_of: Dict[int, int] = {}

    def index_of(self, instr: Instr) -> int:
        """Linear position of an instruction (by identity)."""
        return self._index_of[id(instr)]

    def contains(self, instr: Instr) -> bool:
        """True when ``instr`` (by identity) appears in this snapshot —
        false for instructions inserted after linearization."""
        return id(instr) in self._index_of

    def _append(self, instr: Instr) -> None:
        self._index_of[id(instr)] = len(self.instrs)
        self.instrs.append(instr)

    def __len__(self) -> int:
        return len(self.instrs)

    def __str__(self) -> str:
        lines = []
        for instr in self.instrs:
            if instr.op is Op.LABEL:
                lines.append(str(instr))
            else:
                lines.append(f"    {instr}")
        return "\n".join(lines)


def linearize(func: PDGFunction) -> LinearCode:
    """Emit ``func`` as linear code, recording every region's span."""
    emitter = _Emitter(func)
    emitter.emit_region(func.entry)
    # Guarantee the function cannot fall off the end.
    code = emitter.code
    if not code.instrs or code.instrs[-1].op is not Op.RET:
        code._append(Instr(Op.RET))
    return code


def insert_instrs(
    code: LinearCode, placements: Sequence[Tuple[int, Instr, FrozenSet[int]]]
) -> Optional[LinearCode]:
    """``code`` after instructions were inserted into the PDG, without
    re-walking it: what :func:`linearize` would now return.

    Each placement ``(gap, instr, owners)`` puts ``instr`` immediately
    before old position ``gap``, inside exactly the regions whose ids are
    in ``owners`` (its owning region and every ancestor).  Placements are
    listed in their final linear order.  Returns None when that order
    cannot decide a region's boundary (an empty region sitting at a gap,
    or a region's own instructions interleaved with outsiders at its
    edge); the caller then relinearizes.
    """
    gaps = [gap for gap, _, _ in placements]
    old = code.instrs
    instrs: List[Instr] = []
    previous = 0
    for gap, instr, _ in placements:
        instrs.extend(old[previous:gap])
        instrs.append(instr)
        previous = gap
    instrs.extend(old[previous:])

    def inside_flags(gap: int, region_id: int) -> Tuple[int, List[bool]]:
        low = bisect_left(gaps, gap)
        high = bisect_right(gaps, gap)
        return low, [region_id in placements[i][2] for i in range(low, high)]

    # Shift every boundary by the insertions before it; then settle the
    # boundaries that sit exactly at a gap.
    regions = list(code.region_span)
    bounds = list(code.region_span.values())
    starts = [start + bisect_left(gaps, start) for start, _ in bounds]
    ends = [end + bisect_left(gaps, end) for _, end in bounds]
    at_gap = set(gaps)
    for slot, (start, end) in enumerate(bounds):
        if start not in at_gap and end not in at_gap:
            continue
        region_id = id(regions[slot])
        low, at_start = inside_flags(start, region_id)
        if start == end:
            if at_start:
                return None
            continue
        # Outsiders precede the region's own placements at its start and
        # follow them at its end.
        outside = at_start.count(False)
        if any(at_start[:outside]):
            return None
        starts[slot] += outside
        _, at_end = inside_flags(end, region_id)
        inside = at_end.count(True)
        if not all(at_end[:inside]):
            return None
        ends[slot] += inside

    patched = LinearCode(code.func)
    patched.instrs = instrs
    patched.region_span = dict(zip(regions, zip(starts, ends)))
    patched._index_of = dict(zip(map(id, instrs), range(len(instrs))))
    return patched


class _Emitter:
    def __init__(self, func: PDGFunction):
        self.code = LinearCode(func)
        self._next_label = 0
        self._prefix = func.name

    def _fresh_label(self, hint: str) -> str:
        self._next_label += 1
        return f"{self._prefix}_{hint}{self._next_label}"

    def emit_region(self, region: Region) -> None:
        start = len(self.code)
        if region.is_loop:
            self._emit_loop(region)
        else:
            for item in region.items:
                self._emit_item(item)
        self.code.region_span[region] = (start, len(self.code))

    def _emit_item(self, item) -> None:
        if isinstance(item, Instr):
            self.code._append(item)
        elif isinstance(item, Region):
            self.emit_region(item)
        elif isinstance(item, Predicate):
            self._emit_if(item)
        else:  # pragma: no cover
            raise TypeError(f"bad PDG item {item!r}")

    def _emit_if(self, pred: Predicate) -> None:
        code = self.code
        then_label = self._fresh_label("then")
        end_label = self._fresh_label("endif")
        else_label = (
            self._fresh_label("else") if pred.false_region is not None else end_label
        )
        pred.branch.label = then_label
        pred.branch.label_false = else_label
        code._append(pred.branch)
        code._append(Instr(Op.LABEL, label=then_label))
        if pred.true_region is not None:
            self.emit_region(pred.true_region)
        if pred.false_region is not None:
            code._append(Instr(Op.JMP, label=end_label))
            code._append(Instr(Op.LABEL, label=else_label))
            self.emit_region(pred.false_region)
        code._append(Instr(Op.LABEL, label=end_label))

    def _emit_loop(self, region: Region) -> None:
        """A loop region: items are the per-iteration code, whose final
        predicate guards the body subregion (paper Figure 1, regions
        R2/R3)."""
        code = self.code
        header = self._fresh_label("loop")
        body_label = self._fresh_label("body")
        exit_label = self._fresh_label("endloop")
        code._append(Instr(Op.LABEL, label=header))
        items = list(region.items)
        guard_index = None
        for index in range(len(items) - 1, -1, -1):
            if isinstance(items[index], Predicate):
                guard_index = index
                break
        if guard_index is None:
            raise ValueError(f"loop region {region.name} has no guard predicate")
        for item in items[:guard_index]:
            self._emit_item(item)
        guard: Predicate = items[guard_index]
        guard.branch.label = body_label
        guard.branch.label_false = exit_label
        code._append(guard.branch)
        code._append(Instr(Op.LABEL, label=body_label))
        if guard.true_region is not None:
            self.emit_region(guard.true_region)
        for item in items[guard_index + 1:]:
            self._emit_item(item)
        code._append(Instr(Op.JMP, label=header))
        code._append(Instr(Op.LABEL, label=exit_label))
