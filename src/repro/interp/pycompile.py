"""The compiled interpreter tier: decoded images translated to Python.

The slow dispatch loop in :mod:`repro.interp.machine` pays, per executed
ILOC instruction, for an ``Op`` comparison ladder, label skipping, and a
hashed :class:`~repro.ir.iloc.Reg` lookup per register operand.  This
module removes all of that by translating each
:class:`~repro.interp.decode.DecodedFunction` once into the source of a
single specialized Python function which is then ``compile()``d and
``exec``d:

* registers become Python **local variables** (``r0``, ``r1``, ...), so
  CPython's fast-locals array replaces the per-frame register dict;
* basic blocks become arms of a jump-threaded ``while``/dispatch
  skeleton (a binary search over block ids); blocks with a single
  predecessor edge are inlined at that edge, so straight-line regions,
  if/else ladders, and loop bodies run with no dispatch at all;
* cycle/load/store/copy counters are accumulated **statically**: each
  straight-line segment adds its precomputed totals in O(1) at its exit
  instead of incrementing per instruction.

Exactness is non-negotiable — the compiled tier must be observationally
identical to the slow path:

* **Counters.**  Within a basic block, the counters can only be
  observed at calls, returns, and faults; adding a segment's static
  totals at those points is indistinguishable from the per-instruction
  increments the slow loop performs.
* **Cycle budget.**  The slow loop checks ``total.cycles > max_cycles``
  after each increment.  A straight-line segment of ``B`` instructions
  runs them all unconditionally, so the budget trips inside the segment
  *iff* ``cycles + B > limit`` at segment entry.  The compiled code tests
  exactly that, and when it would trip it *bails*: registers and pending
  counters are materialized back into the frame and the stats, and
  execution resumes instruction-by-instruction on the slow loop from the
  segment start, which then produces the byte-identical fault (whichever
  of budget/divide/etc. comes first).  The bail runs at most one segment
  and only on activations that are already guaranteed to fault, so it
  costs nothing on the happy path.
* **Faults.**  Before every instruction that can fault (``div``/
  ``mod``, heap access, ``loada``, ``call``, and any register read not
  proven initialized by a definite-assignment dataflow), the generated
  code stores the decoded pc into a local; a function-level handler
  maps it through ``_META`` to the original-code pc (via the decode
  ``pc_map``) and to the exact counter deltas accrued since the last
  segment exit, reproducing the slow path's annotation (message,
  function, pc, cycles) byte for byte.  Reads of uninitialized
  registers surface as :class:`UnboundLocalError`/:class:`NameError` on
  an ``rN`` local and are converted into the same ``MachineFault`` the
  slow loop raises.

The compiled artifact is cached on the :class:`FunctionImage` next to
the decode cache, so every machine (and every sweep cell or service
worker touching that image) shares one translation.  Translations are
also shared across images through a content-keyed cache (``_ARTIFACTS``)
that holds only the generated function and its ``_META`` fault map, never
an image: the bail path finds the running image through the machine.
Any failure to translate falls back to the slow loop for that image
alone.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .decode import (
    OP_ALLOCA,
    OP_AND,
    OP_CALL,
    OP_CBR,
    OP_DIV,
    OP_I2I,
    OP_JMP,
    OP_LDM_GLOBAL,
    OP_LDM_SPILL,
    OP_LOAD,
    OP_LOADA,
    OP_LOADI,
    OP_MOD,
    OP_NEG,
    OP_NOP,
    OP_NOT,
    OP_OR,
    OP_PARAM,
    OP_PRINT,
    OP_RET,
    OP_STM_GLOBAL,
    OP_STM_SPILL,
    OP_STORE,
    DecodedFunction,
)
from .machine import _div, _mod
from .memory import MachineFault

__all__ = ["PyCompiledFunction", "compile_decoded"]


@dataclass
class PyCompiledFunction:
    """Compiled artifact for one function's decoded content.

    ``fn(machine, frame)`` executes one activation and returns the
    function's return value, raising fully annotated
    :class:`MachineFault` on faulting runs.  The artifact references no
    image, so it may be shared by every content-equal image.  The source
    is not kept; ``REPRO_PYCOMPILE_DUMP=1`` prints it at compile time.
    """

    name: str
    fn: Callable


_REG_IN_ERROR = re.compile(r"'(r\d+)'")

#: opcodes whose operand 1 is a dense destination register index.
_DST_OPS = frozenset(range(2, 19)) | {
    OP_LOAD,
    OP_LDM_SPILL,
    OP_LDM_GLOBAL,
    OP_LOADA,
    OP_ALLOCA,
}

#: binary ops emitted as infix expressions (comparisons wrapped in int()).
_INFIX = {
    3: "+",  # add
    4: "-",  # sub
    5: "*",  # mul
    9: "<",
    10: "<=",
    11: ">",
    12: ">=",
    13: "==",
    14: "!=",
}
_CMP_OPS = frozenset(range(9, 15))
_LOAD_OPS = frozenset((OP_LOAD, OP_LDM_SPILL, OP_LDM_GLOBAL))
_STORE_OPS = frozenset((OP_STORE, OP_STM_SPILL, OP_STM_GLOBAL))
_INHERENT_FAULT_OPS = frozenset(
    (OP_DIV, OP_MOD, OP_LOAD, OP_STORE, OP_LOADA, OP_CALL)
)


def _reg_of(err: BaseException) -> Optional[int]:
    """Dense register index behind an Unbound/NameError on an ``rN`` local.

    Returns None when the error is not about a register local (the
    generated handler then re-raises it untouched — a codegen bug must
    crash loudly, not masquerade as a guest fault).
    """
    name = getattr(err, "name", None)
    if name is None:
        match = _REG_IN_ERROR.search(str(err))
        name = match.group(1) if match else None
    if not name or name[0] != "r" or not name[1:].isdigit():
        return None
    return int(name[1:])


def _bail(
    machine,
    name,
    frame,
    pc,
    cycles,
    loads,
    stores,
    copies,
    lcls,
    slot_names=(),
):
    """Leave compiled code and replay from decoded ``pc`` on the slow loop.

    Called when a segment's cycle pre-check says the budget would trip
    inside it: the activation is guaranteed to fault, and the slow loop
    is the authority on *which* instruction faults first.  The running
    image is looked up by ``name`` in the machine's program, as generated
    call sites do, so the shared artifact pins no image.  Register locals
    ``rN`` move into the frame under their :class:`~repro.ir.iloc.Reg`
    keys (``decoded.regs[N]``), promoted frame slots ``_sN`` move back
    through ``slot_names``, and the pending counter deltas go straight
    into the stats, which the slow loop then advances one instruction at
    a time, so its budget check trips on the same instruction.

    The resulting fault is fully flushed and annotated, so it must sail
    *through* this activation's own generated ``except MachineFault``
    handler (which would flush the pending deltas a second time): it
    travels wrapped in :class:`~repro.interp.machine._Bailout` and is
    unwrapped at the activation boundary in
    :class:`~repro.interp.machine.Machine`.
    """
    from .machine import _Bailout

    image = machine.program.functions[name]
    decoded = image._decoded
    regs = frame.regs
    slots = frame.slots
    for key, value in lcls.items():
        if key[0] == "r" and key[1:].isdigit():
            regs[decoded.regs[int(key[1:])]] = value
        elif key.startswith("_s") and key[2:].isdigit():
            slots[slot_names[int(key[2:])]] = value
    stats = machine.stats
    for counters in (stats.total, stats.function(name)):
        counters.cycles += cycles
        counters.loads += loads
        counters.stores += stores
        counters.copies += copies
    try:
        return machine._run_slow(image, frame, decoded.pc_map[pc])
    except MachineFault as fault:
        raise _Bailout(fault) from None


# -- control-flow analysis ---------------------------------------------------


def _block_starts(code: Tuple[tuple, ...]) -> List[int]:
    """Leaders: pc 0 plus every in-range branch target."""
    n = len(code)
    leaders: Set[int] = {0} if n else set()
    for ins in code:
        op = ins[0]
        if op == OP_CBR:
            for target in (ins[2], ins[3]):
                if target < n:
                    leaders.add(target)
        elif op == OP_JMP and ins[1] < n:
            leaders.add(ins[1])
    return sorted(leaders)


@dataclass
class _Block:
    start: int
    end: int  # exclusive; code[end - 1] is the terminator if there is one
    succs: List[int] = field(default_factory=list)  # leader pcs, or n (exit)
    preds: int = 0  # incoming edge count over reachable blocks
    reachable: bool = False
    gen: int = 0  # registers written anywhere in the block (bitset)
    assigned_in: int = 0  # registers written on every path to the block


def _build_cfg(code: Tuple[tuple, ...]) -> Dict[int, _Block]:
    n = len(code)
    starts = _block_starts(code)
    leader_set = set(starts)
    blocks: Dict[int, _Block] = {}
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else n
        pc = start
        while pc < end:
            if code[pc][0] in (OP_CBR, OP_JMP, OP_RET):
                end = pc + 1
                break
            pc += 1
        blocks[start] = _Block(start=start, end=end)
    for block in blocks.values():
        last = code[block.end - 1]
        op = last[0]
        if op == OP_CBR:
            succs = [last[2], last[3]]
        elif op == OP_JMP:
            succs = [last[1]]
        elif op == OP_RET:
            succs = []
        else:  # fell into the next leader, or off the end of the function
            succs = [block.end]
        # A successor pc that is not a leader can only be n (decode
        # pre-resolves every branch target, and n marks "fall off end").
        block.succs = [s if s in leader_set else n for s in succs]
    work = [0] if blocks else []
    while work:
        block = blocks[work.pop()]
        if block.reachable:
            continue
        block.reachable = True
        work.extend(s for s in block.succs if s in blocks)
    for block in blocks.values():
        if block.reachable:
            for succ in block.succs:
                if succ in blocks:
                    blocks[succ].preds += 1
    return blocks


def _definite_assignment(code, blocks: Dict[int, _Block], nregs: int) -> None:
    """Forward must-analysis: registers written on *every* path to a block.

    ``assigned_in`` lets the emitter skip the ``pc = K`` bookkeeping
    store in front of register reads that provably cannot fault.
    ``and``/``or`` read their second operand conditionally, so an
    unproven second operand marks the instruction as possibly faulting
    (the short-circuit may evaluate it) without being a required read.
    """
    all_bits = (1 << nregs) - 1
    for block in blocks.values():
        gen = 0
        for pc in range(block.start, block.end):
            ins = code[pc]
            if ins[0] in _DST_OPS:
                gen |= 1 << ins[1]
            elif ins[0] == OP_CALL and ins[2] is not None:
                gen |= 1 << ins[2]
        block.gen = gen
        block.assigned_in = 0 if block.start == 0 else all_bits
    reachable = [b for b in blocks.values() if b.reachable]
    changed = True
    while changed:
        changed = False
        for block in reachable:
            out = block.assigned_in | block.gen
            for succ in block.succs:
                target = blocks.get(succ)
                if target is None or not target.reachable:
                    continue
                narrowed = target.assigned_in & out
                if narrowed != target.assigned_in:
                    target.assigned_in = narrowed
                    changed = True


def _reads_of(ins: tuple) -> Tuple[List[int], List[int]]:
    """(required reads, conditional reads) as dense register indices,
    in evaluation order — mirrored from the slow-path expressions."""
    op = ins[0]
    if op in _INFIX:
        return [ins[2], ins[3]], []
    if op in (OP_AND, OP_OR):
        return [ins[2]], [ins[3]]
    if op in (OP_DIV, OP_MOD):
        return [ins[2], ins[3]], []
    if op in (OP_NEG, OP_NOT, OP_I2I, OP_LOAD):
        return [ins[2]], []
    if op == OP_STORE:
        return [ins[2], ins[1]], []  # address evaluated before value
    if op in (OP_STM_SPILL, OP_STM_GLOBAL):
        return [ins[2]], []
    if op in (OP_CBR, OP_PARAM, OP_PRINT):
        return [ins[1]], []
    if op == OP_RET and ins[1] is not None:
        return [ins[1]], []
    return [], []


# -- code generation ---------------------------------------------------------


class _Emitter:
    def __init__(self, decoded: DecodedFunction):
        self.decoded = decoded
        self.code = decoded.code
        self.n = len(decoded.code)
        self.blocks = _build_cfg(decoded.code)
        _definite_assignment(decoded.code, self.blocks, len(decoded.regs))
        arm_starts = {
            start
            for start, block in self.blocks.items()
            if block.reachable and block.preds >= 2
        }
        if self.blocks and (arm_starts or self.blocks[0].preds):
            # All dispatch happens inside one ``while``; making the entry
            # block an arm keeps every transfer a plain ``continue``.
            arm_starts.add(0)
        self.arms = sorted(arm_starts)
        self.arm_set = arm_starts
        self.meta: Dict[int, Tuple[int, int, int, int, int]] = {}
        self.lines: List[str] = []
        self.uses: Set[str] = set()
        #: frame slots (params and spill homes) promoted to Python
        #: locals ``_s0..``, keyed by slot name in first-reference order.
        #: The prologue seeds each from the frame dict (parameters arrive
        #: there; unwritten spill slots read as 0), and the bail path
        #: materializes them back.
        self.slot_ids: Dict[str, int] = {}
        for ins in self.code:
            if ins[0] == OP_LDM_SPILL:
                slot = ins[2]
            elif ins[0] == OP_STM_SPILL:
                slot = ins[1]
            else:
                continue
            if slot not in self.slot_ids:
                self.slot_ids[slot] = len(self.slot_ids)
        ops = {ins[0] for ins in self.code}
        self.has_loads = bool(ops & _LOAD_OPS)
        self.has_stores = bool(ops & _STORE_OPS)
        self.has_copies = OP_I2I in ops
        self.guarded = self._needs_fault_wrapper()

    # -- small helpers -------------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def safe(self, assigned: int, reg: int) -> bool:
        return bool(assigned >> reg & 1)

    def counter_locals(self) -> List[Tuple[str, str]]:
        out = []
        if self.has_loads:
            out.append(("_ld", "loads"))
        if self.has_stores:
            out.append(("_st", "stores"))
        if self.has_copies:
            out.append(("_cp", "copies"))
        return out

    def flush_lines(self) -> List[str]:
        """Fold pending cycles + traffic counters into the shared stats."""
        out = ["_total.cycles += _cycles", "_counters.cycles += _cycles"]
        for local, kind in self.counter_locals():
            out.append(f"if {local}:")
            out.append(f"    _total.{kind} += {local}")
            out.append(f"    _counters.{kind} += {local}")
        return out

    def _needs_fault_wrapper(self) -> bool:
        """Whether any instruction can raise inside the generated body."""
        if any(ins[0] in _INHERENT_FAULT_OPS for ins in self.code):
            return True
        for block in self.blocks.values():
            if not block.reachable:
                continue
            assigned = block.assigned_in
            for pc in range(block.start, block.end):
                ins = self.code[pc]
                required, conditional = _reads_of(ins)
                if any(
                    not self.safe(assigned, r) for r in required + conditional
                ):
                    return True
                if ins[0] in _DST_OPS:
                    assigned |= 1 << ins[1]
                elif ins[0] == OP_CALL and ins[2] is not None:
                    assigned |= 1 << ins[2]
        return False

    # -- control transfer ----------------------------------------------------

    def emit_goto(self, depth: int, target: int) -> None:
        if target >= self.n:
            self.emit_exit(depth)
        elif target in self.arm_set:
            self.emit(depth, f"_b = {self.arms.index(target)}")
            self.emit(depth, "continue")
        else:
            self.emit_block_chain(depth, target)

    def emit_exit(self, depth: int) -> None:
        for line in self.flush_lines():
            self.emit(depth, line)
        self.emit(depth, "return 0")

    def emit_block_chain(self, depth: int, start: int) -> None:
        fall_through = self.emit_block_body(depth, self.blocks[start])
        if fall_through is not None:
            self.emit_goto(depth, fall_through)

    def emit_dispatch_tree(self, depth: int, lo: int, hi: int) -> None:
        """Binary search over arm ids: O(log arms) compares per transfer.
        Every arm body ends in ``return`` or ``continue``, so the arms
        never fall through into each other."""
        if hi - lo == 1:
            self.emit_block_chain(depth, self.arms[lo])
            return
        mid = (lo + hi) // 2
        if hi - lo == 2:
            self.emit(depth, f"if _b == {lo}:")
        else:
            self.emit(depth, f"if _b < {mid}:")
        self.emit_dispatch_tree(depth + 1, lo, mid)
        self.emit(depth, "else:")
        self.emit_dispatch_tree(depth + 1, mid, hi)

    # -- block and segment emission ------------------------------------------

    def emit_block_body(self, depth: int, block: _Block) -> Optional[int]:
        """Emit one block; returns the fall-through pc, or None if every
        path out of the block was emitted (terminator present)."""
        code = self.code
        assigned = block.assigned_in
        pc = block.start
        while pc < block.end:
            # Segment: instructions up to (and including) the next call,
            # or to the block end.  One budget pre-check covers it all.
            seg_end = pc
            while seg_end < block.end and code[seg_end][0] != OP_CALL:
                seg_end += 1
            stop = min(seg_end + 1, block.end)
            self.emit_budget_check(depth, pc, stop - pc)
            assigned = self.emit_segment(depth, pc, stop, assigned)
            pc = stop
        if code[block.end - 1][0] in (OP_CBR, OP_JMP, OP_RET):
            return None
        return block.end

    def emit_budget_check(self, depth: int, pc: int, seg_len: int) -> None:
        ld = "_ld" if self.has_loads else "0"
        st = "_st" if self.has_stores else "0"
        cp = "_cp" if self.has_copies else "0"
        self.emit(depth, f"if _cycles + {seg_len} > _limit:")
        self.emit(
            depth + 1,
            f"return _bail(machine, _NAME, frame, {pc}, "
            f"_cycles, {ld}, {st}, {cp}, locals(), _SLOT_NAMES)",
        )

    def emit_segment(self, depth: int, start: int, stop: int, assigned: int) -> int:
        """Emit code[start:stop] (straight line, call only at the end).

        Counter accounting is static: ``seg_len`` cycles plus the
        segment's load/store/copy totals are added at the segment's exit
        (fall-off, branch, return, or call flush), and ``_META`` records
        per-instruction prefix deltas so a mid-segment fault can
        reconstruct the exact counter state the slow path would report.
        """
        code = self.code
        seg_len = stop - start
        d_ld = d_st = d_cp = 0
        closed = False
        for offset in range(seg_len):
            pc = start + offset
            ins = code[pc]
            op = ins[0]
            required, conditional = _reads_of(ins)
            delta_ld = d_ld + (1 if op in _LOAD_OPS else 0)
            delta_st = d_st + (1 if op in _STORE_OPS else 0)
            delta_cp = d_cp + (1 if op == OP_I2I else 0)
            if op in _INHERENT_FAULT_OPS or any(
                not self.safe(assigned, r) for r in required + conditional
            ):
                self.emit(depth, f"pc = {pc}")
                self.meta[pc] = (
                    self.decoded.pc_map[pc],
                    offset + 1,
                    delta_ld,
                    delta_st,
                    delta_cp,
                )

            if op == OP_LOADI:
                self.emit(depth, f"r{ins[1]} = {_literal(ins[2])}")
            elif op in _INFIX:
                expr = f"r{ins[2]} {_INFIX[op]} r{ins[3]}"
                if op in _CMP_OPS:
                    expr = f"int({expr})"
                self.emit(depth, f"r{ins[1]} = {expr}")
            elif op in (OP_DIV, OP_MOD):
                helper = "_div" if op == OP_DIV else "_mod"
                self.emit(depth, f"r{ins[1]} = {helper}(r{ins[2]}, r{ins[3]})")
            elif op == OP_NEG:
                self.emit(depth, f"r{ins[1]} = -r{ins[2]}")
            elif op == OP_AND:
                self.emit(
                    depth, f"r{ins[1]} = int(bool(r{ins[2]}) and bool(r{ins[3]}))"
                )
            elif op == OP_OR:
                self.emit(
                    depth, f"r{ins[1]} = int(bool(r{ins[2]}) or bool(r{ins[3]}))"
                )
            elif op == OP_NOT:
                self.emit(depth, f"r{ins[1]} = int(not r{ins[2]})")
            elif op == OP_I2I:
                self.emit(depth, f"r{ins[1]} = r{ins[2]}")
                d_cp += 1
            elif op == OP_LOAD:
                # Inline the dominant case (non-negative int address,
                # the only kind the heap dict is ever keyed by): one
                # dict ``get`` instead of two method calls.  ``bool``
                # and ``float`` addresses take the Memory method, which
                # owns the exact fault wording.
                self.uses.update(("_heap_get", "_mem_load"))
                src = f"r{ins[2]}"
                self.emit(
                    depth,
                    f"r{ins[1]} = _heap_get({src}, 0)"
                    f" if type({src}) is int and {src} >= 0"
                    f" else _mem_load({src})",
                )
                d_ld += 1
            elif op == OP_STORE:
                # The address register is read first (in the condition),
                # preserving the slow path's address-before-value
                # operand evaluation for uninitialized-register faults.
                self.uses.update(("_heap", "_mem_store"))
                addr, val = f"r{ins[2]}", f"r{ins[1]}"
                self.emit(depth, f"if type({addr}) is int and {addr} >= 0:")
                self.emit(depth + 1, f"_heap[{addr}] = {val}")
                self.emit(depth, "else:")
                self.emit(depth + 1, f"_mem_store({addr}, {val})")
                d_st += 1
            elif op == OP_LDM_SPILL:
                self.emit(depth, f"r{ins[1]} = _s{self.slot_ids[ins[2]]}")
                d_ld += 1
            elif op == OP_LDM_GLOBAL:
                self.uses.add("_load_scalar")
                self.emit(depth, f"r{ins[1]} = _load_scalar({ins[2]!r})")
                d_ld += 1
            elif op == OP_STM_SPILL:
                self.emit(depth, f"_s{self.slot_ids[ins[1]]} = r{ins[2]}")
                d_st += 1
            elif op == OP_STM_GLOBAL:
                self.uses.add("_store_scalar")
                self.emit(depth, f"_store_scalar({ins[1]!r}, r{ins[2]})")
                d_st += 1
            elif op == OP_LOADA:
                self.uses.add("_array_base_get")
                message = f"unknown global array {ins[2]!r}"
                self.emit(depth, f"_t = _array_base_get({ins[2]!r})")
                self.emit(depth, "if _t is None:")
                self.emit(depth + 1, f"raise MachineFault({message!r})")
                self.emit(depth, f"r{ins[1]} = _t")
            elif op == OP_ALLOCA:
                self.uses.add("_alloca")
                self.emit(depth, f"r{ins[1]} = _alloca({ins[2]!r})")
            elif op == OP_CBR:
                self.emit(depth, f"_t = r{ins[1]}")
                self.emit_accounting(depth, seg_len, d_ld, d_st, d_cp)
                self.emit(depth, "if _t:")
                self.emit_goto(depth + 1, ins[2])
                self.emit_goto(depth, ins[3])
                closed = True
            elif op == OP_JMP:
                self.emit_accounting(depth, seg_len, d_ld, d_st, d_cp)
                self.emit_goto(depth, ins[1])
                closed = True
            elif op == OP_PARAM:
                self.uses.add("_argq")
                self.emit(depth, f"_argq.append(r{ins[1]})")
            elif op == OP_CALL:
                self.emit_call(depth, pc, ins, seg_len, d_ld, d_st, d_cp)
                closed = True
            elif op == OP_RET:
                if ins[1] is not None:
                    self.emit(depth, f"_t = r{ins[1]}")
                self.emit_accounting(depth, seg_len, d_ld, d_st, d_cp)
                for line in self.flush_lines():
                    self.emit(depth, line)
                self.emit(depth, f"return {'_t' if ins[1] is not None else 0}")
                closed = True
            elif op == OP_NOP:
                pass
            elif op == OP_PRINT:
                self.uses.add("_out_append")
                self.emit(depth, f"_out_append(r{ins[1]})")

            if op in _DST_OPS:
                assigned |= 1 << ins[1]
            elif op == OP_CALL and ins[2] is not None:
                assigned |= 1 << ins[2]
        if not closed:
            self.emit_accounting(depth, seg_len, d_ld, d_st, d_cp)
        return assigned

    def emit_accounting(
        self, depth: int, seg_len: int, d_ld: int, d_st: int, d_cp: int
    ) -> None:
        self.emit(depth, f"_cycles += {seg_len}")
        for value, local in ((d_ld, "_ld"), (d_st, "_st"), (d_cp, "_cp")):
            if value:
                self.emit(depth, f"{local} += {value}")

    def emit_call(
        self,
        depth: int,
        pc: int,
        ins: tuple,
        seg_len: int,
        d_ld: int,
        d_st: int,
        d_cp: int,
    ) -> None:
        """``call``: account and flush cycles first (so the callee's
        budget check and fault annotation see an up-to-date total,
        exactly like the slow loop's per-instruction counts), then the arity
        check, then the activation itself."""
        self.uses.update(("_argq", "_prog_image", "_machine_call", "_max_cycles"))
        callee = ins[1]
        self.emit_accounting(depth, seg_len, d_ld, d_st, d_cp)
        self.emit(depth, "_total.cycles += _cycles")
        self.emit(depth, "_counters.cycles += _cycles")
        self.emit(depth, "_cycles = 0")
        # Everything up to here is flushed before anything can raise, so
        # the fault-time deltas for the call pc itself are all zero.
        self.meta[pc] = (self.decoded.pc_map[pc], 0, 0, 0, 0)
        message = f"call to {callee} with too few queued params"
        self.emit(depth, f"_img = _prog_image({callee!r})")
        self.emit(depth, "_arity = len(_img.param_slots)")
        self.emit(depth, "_n = len(_argq)")
        self.emit(depth, "if _n < _arity:")
        self.emit(depth + 1, f"raise MachineFault({message!r})")
        self.emit(depth, "_a = _argq[_n - _arity:]")
        self.emit(depth, "del _argq[_n - _arity:]")
        target = f"r{ins[2]} = " if ins[2] is not None else ""
        self.emit(depth, f"{target}_machine_call(_img, _a)")
        self.emit(depth, "_limit = _max_cycles - _total.cycles")

    # -- whole-function assembly ---------------------------------------------

    def generate(self) -> str:
        name = self.decoded.name
        body: List[str] = []
        self.lines = body
        base = 2 if self.guarded else 1
        if self.arms:
            self.emit(base, "_b = 0")
            self.emit(base, "while 1:")
            self.emit_dispatch_tree(base + 1, 0, len(self.arms))
        elif self.n:
            self.emit_block_chain(base, 0)
        else:
            self.emit_exit(base)

        hoists = {
            "_mem_load": "_mem_load = machine.memory.load",
            "_mem_store": "_mem_store = machine.memory.store",
            "_heap": "_heap = machine.memory.heap",
            "_heap_get": "_heap_get = machine.memory.heap.get",
            "_load_scalar": "_load_scalar = machine.memory.load_scalar",
            "_store_scalar": "_store_scalar = machine.memory.store_scalar",
            "_array_base_get": "_array_base_get = machine.memory.array_base.get",
            "_alloca": "_alloca = machine.memory.alloca",
            "_slots": "_slots = frame.slots",
            "_slots_get": "_slots_get = frame.slots.get",
            "_argq": "_argq = machine._arg_queue",
            "_prog_image": "_prog_image = machine.program.image",
            "_machine_call": "_machine_call = machine._call_compiled",
            "_max_cycles": "_max_cycles = machine.max_cycles",
            "_out_append": "_out_append = machine.stats.output.append",
        }
        head: List[str] = [f"def {self.fn_name()}(machine, frame):"]
        pad = "    " * base
        if self.guarded:
            head.append("    try:")
        head.append(pad + "_total = machine.stats.total")
        head.append(pad + f"_counters = machine.stats.function({name!r})")
        head.append(pad + "_limit = machine.max_cycles - _total.cycles")
        head.append(pad + "_cycles = 0")
        locals_ = [local for local, _ in self.counter_locals()]
        if locals_:
            head.append(pad + f"{' = '.join(locals_)} = 0")
        if self.slot_ids:
            self.uses.add("_slots_get")
        for key in sorted(self.uses):
            head.append(pad + hoists[key])
        for slot, index in self.slot_ids.items():
            head.append(pad + f"_s{index} = _slots_get({slot!r}, 0)")

        tail: List[str] = []
        if self.guarded:
            tail.extend(self._handler("MachineFault", None))
            tail.extend(self._handler("NameError", "uninit"))
        return "\n".join(head + body + tail) + "\n"

    def fn_name(self) -> str:
        return f"_pyc_{_safe_ident(self.decoded.name)}"

    def _handler(self, exc: str, kind: Optional[str]) -> List[str]:
        """The function-level fault translator (see the module docstring)."""
        pad = "    "
        out = [pad + f"except {exc} as _e:"]
        inner = pad * 2

        def line(text: str) -> None:
            out.append(inner + text)

        if kind == "uninit":
            line("_r = _reg_of(_e)")
            line("if _r is None:")
            line("    raise")
        line("_o, _dc, _dl, _ds, _dp = _META[pc]")
        line("_cycles += _dc")
        line("_total.cycles += _cycles")
        line("_counters.cycles += _cycles")
        for (local, kind_name), delta in zip(
            self.counter_locals_all(), ("_dl", "_ds", "_dp")
        ):
            if local is None:
                continue
            line(f"{local} += {delta}")
            line(f"if {local}:")
            line(f"    _total.{kind_name} += {local}")
            line(f"    _counters.{kind_name} += {local}")
        if kind == "uninit":
            line("raise MachineFault(")
            line("    'read of uninitialized register %s in %s'")
            line("    % (_REGS[_r], _NAME),")
            line("    function=_NAME, pc=_o, cycles=_total.cycles,")
            line(") from None")
        else:
            line(
                "raise _e.annotate(function=_NAME, pc=_o, cycles=_total.cycles)"
            )
        return out

    def counter_locals_all(self) -> List[Tuple[Optional[str], str]]:
        return [
            ("_ld" if self.has_loads else None, "loads"),
            ("_st" if self.has_stores else None, "stores"),
            ("_cp" if self.has_copies else None, "copies"),
        ]


def _literal(value) -> str:
    """Python source for a ``loadi`` immediate.  ``repr`` of a non-finite
    float (``inf``, ``-inf``, ``nan``) is not an expression."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value)


def _safe_ident(name: str) -> str:
    return re.sub(r"\W", "_", name) or "fn"


#: Content-keyed artifact cache shared across images.  A sweep allocates
#: the same program once per (allocator, k) cell, and small functions
#: frequently allocate to byte-identical code across cells; translating
#: each distinct (name, code, pc_map, regs) once is then enough, because
#: the generated source depends on nothing else (the executing machine
#: and frame are call arguments, and the bail path finds the running
#: image through the machine).  The key is a fixed-size digest of that
#: content's ``repr``, which tells ``7`` from ``7.0`` and ``0.0`` from
#: ``-0.0`` where tuple equality does not.  Bounded FIFO so a long-lived
#: service daemon cannot grow it without limit.
_ARTIFACTS: Dict[bytes, "PyCompiledFunction"] = {}
_ARTIFACTS_MAX = 4096


def compile_decoded(image, decoded: DecodedFunction) -> PyCompiledFunction:
    """Translate one decoded function into a specialized Python callable.

    The artifact depends on ``decoded`` alone; ``image`` is not retained.
    """
    key = hashlib.blake2b(
        repr((decoded.name, decoded.code, decoded.pc_map, decoded.regs)).encode()
    ).digest()
    cached = _ARTIFACTS.get(key)
    if cached is not None:
        return cached
    emitter = _Emitter(decoded)
    source = emitter.generate()
    if os.environ.get("REPRO_PYCOMPILE_DUMP"):  # pragma: no cover - debug aid
        print(f"# --- pycompile {decoded.name} ---\n{source}")
    namespace = {
        "MachineFault": MachineFault,
        "_div": _div,
        "_mod": _mod,
        "_bail": _bail,
        "_reg_of": _reg_of,
        "_META": emitter.meta,
        "_REGS": tuple(str(reg) for reg in decoded.regs),
        "_NAME": decoded.name,
        "_SLOT_NAMES": tuple(emitter.slot_ids),
    }
    code = compile(source, f"<pycompiled {decoded.name}>", "exec")
    exec(code, namespace)
    artifact = PyCompiledFunction(name=decoded.name, fn=namespace[emitter.fn_name()])
    if len(_ARTIFACTS) >= _ARTIFACTS_MAX:
        del _ARTIFACTS[next(iter(_ARTIFACTS))]
    _ARTIFACTS[key] = artifact
    return artifact
