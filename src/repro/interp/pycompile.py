"""The compiled interpreter tier: program images run as generated Python.

The slow dispatch loop in :mod:`repro.interp.machine` pays, per executed
ILOC instruction, for an ``Op`` comparison ladder, label skipping, and a
hashed :class:`~repro.ir.iloc.Reg` lookup per register operand, and per
call for a frame dict and a Python frame per machine layer.  This module
removes all of that by translating each
:class:`~repro.interp.decode.DecodedFunction` into the source of one
specialized Python function, which is ``compile()``d once per program
image and bound into that run's namespace:

* registers become Python **local variables** (``r0``, ``r1``, ...), so
  CPython's fast-locals array replaces the per-frame register dict, and
  spill slots become locals ``_s0, _s1, ...`` as well; the incoming
  parameter slots are the function's positional parameters;
* a ``call`` is a **direct Python call** of the callee's global
  (``_fn_<name>``) with the queued parameters as positional arguments,
  so a guest activation costs one Python frame;
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
  exactly that, and when it would trip it *bails*: registers and spill
  slots are materialized into a fresh frame, pending counters into the
  stats, and execution resumes instruction-by-instruction on the slow
  loop from the segment start, which then produces the byte-identical
  fault (whichever of budget/divide/etc. comes first).  The bail runs at
  most one segment and only on activations that are already guaranteed
  to fault, so it costs nothing on the happy path.
* **Faults.**  Before every instruction that can fault (``div``/
  ``mod``, heap access, ``loada``, ``call``, and any register read not
  proven initialized by a definite-assignment dataflow), the generated
  code stores the decoded pc into a local; a function-level handler
  maps it through the translation's ``meta`` table to the original-code
  pc (via the decode ``pc_map``) and to the exact counter deltas accrued
  since the last segment exit, reproducing the slow path's annotation
  (message, function, pc, cycles) byte for byte.  Reads of uninitialized
  registers surface as :class:`UnboundLocalError`/:class:`NameError` on
  an ``rN`` local and are converted into the same ``MachineFault`` the
  slow loop raises.

Ownership.  :func:`compile_decoded` returns a code object that refers to
no image and no machine.  Each :class:`~repro.interp.machine.ProgramImage`
keeps its own translations, made lazily on a function's first compiled
activation (a translation depends on the program: a call site is
specialized to its callee's arity), so they live and die with the image.
A run binds them into a fresh namespace (:func:`run_namespace`) that
holds the run's machine state — counters, memory, output — fetched once,
and is cleared when the run ends.  A function the translator rejects
runs on the slow loop alone; every other function stays compiled.
"""

from __future__ import annotations

import builtins
import math
import os
import re
import time
from dataclasses import dataclass, field
from functools import partial
from types import CodeType, FunctionType
from typing import Dict, List, Optional, Set, Tuple

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
from .machine import _Bailout, _div, _Frame, _mod
from .memory import MachineFault

__all__ = ["PyCompiledFunction", "compile_decoded", "run_namespace"]


@dataclass
class PyCompiledFunction:
    """One function's translation: the code object of its generated
    ``def``, ready to be bound into a run's namespace.

    It references no image and no machine.  The tables the generated
    code consults only on a fault or a bail are kept here rather than in
    its source, which stays short.  The source is not kept;
    ``REPRO_PYCOMPILE_DUMP=1`` prints it at compile time.
    """

    name: str
    code: CodeType
    #: decoded pc -> (original pc, cycle, load, store, copy deltas since
    #: the last segment exit), at every pc that can fault
    meta: Dict[int, Tuple[int, int, int, int, int]]
    #: dense register index -> register name, for uninitialized reads
    regs: Tuple[str, ...]
    #: slot local index -> frame slot name, for the bail
    slot_names: Tuple[str, ...]


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


def _ident(name: str) -> str:
    """An identifier suffix for function ``name``, distinct per name."""
    if name.isidentifier() and name.isascii():
        return "n_" + name
    return "x_" + name.encode().hex()


def function_global(name: str) -> str:
    """The namespace global through which function ``name`` is called."""
    return "_f" + _ident(name)


def _counters_global(name: str) -> str:
    """The namespace global holding function ``name``'s counters."""
    return "_c" + _ident(name)


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


def _bail(machine, name, pc, pending, lcls):
    """Leave compiled code and replay from decoded ``pc`` on the slow loop.

    Called when a segment's cycle pre-check says the budget would trip
    inside it: the activation is guaranteed to fault, and the slow loop
    is the authority on *which* instruction faults first.  Register
    locals ``rN`` move into a new frame under their
    :class:`~repro.ir.iloc.Reg` keys (``decoded.regs[N]``), slot locals
    ``_sN`` under their names (the translation's ``slot_names[N]``),
    and the ``pending``
    (cycles, loads, stores, copies) deltas go straight into the stats,
    which the slow loop then advances one instruction at a time, so its
    budget check trips on the same instruction.

    The resulting fault is fully flushed and annotated, so it must sail
    *through* this activation's own ``except MachineFault`` handler
    (which would flush the pending deltas a second time): it travels
    wrapped in :class:`~repro.interp.machine._Bailout`, which only the
    bailing activation's generated code unwraps.
    """
    image = machine.program.functions[name]
    decoded = image._decoded
    slot_names = machine.program._translations[name].slot_names
    frame = _Frame(machine.memory.stack_top)
    regs = frame.regs
    slots = frame.slots
    for key, value in lcls.items():
        if key[0] == "r" and key[1:].isdigit():
            regs[decoded.regs[int(key[1:])]] = value
        elif key.startswith("_s") and key[2:].isdigit():
            slots[slot_names[int(key[2:])]] = value
    cycles, loads, stores, copies = pending
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
    def __init__(self, program, decoded: DecodedFunction):
        self.decoded = decoded
        self.code = decoded.code
        self.n = len(decoded.code)
        self.name = decoded.name
        self.counters = _counters_global(decoded.name)
        #: callee name -> arity, for every function of the program
        self.arity = {
            name: len(image.param_slots) for name, image in program.functions.items()
        }
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
        #: frame slots promoted to Python locals ``_s0..``, keyed by slot
        #: name: the parameter slots first, in order (they are the
        #: function's positional parameters), then every spill slot in
        #: first-reference order (unwritten spill slots read as 0).  The
        #: bail path materializes them back into a frame.
        self.params = list(program.functions[decoded.name].param_slots)
        self.slot_ids: Dict[str, int] = {}
        spill_slots = [
            ins[2] if ins[0] == OP_LDM_SPILL else ins[1]
            for ins in self.code
            if ins[0] in (OP_LDM_SPILL, OP_STM_SPILL)
        ]
        for slot in self.params + spill_slots:
            self.slot_ids.setdefault(slot, len(self.slot_ids))
        ops = {ins[0] for ins in self.code}
        self.has_loads = bool(ops & _LOAD_OPS)
        self.has_stores = bool(ops & _STORE_OPS)
        self.has_copies = OP_I2I in ops
        self.has_alloca = OP_ALLOCA in ops
        self.can_fault = self._can_fault()

    # -- small helpers -------------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def safe(self, assigned: int, reg: int) -> bool:
        return bool(assigned >> reg & 1)

    def counter_locals(self) -> List[Tuple[Optional[str], str]]:
        """(pending local or None when the function never counts it, kind)."""
        return [
            ("_ld" if self.has_loads else None, "loads"),
            ("_st" if self.has_stores else None, "stores"),
            ("_cp" if self.has_copies else None, "copies"),
        ]

    def flush_lines(self) -> List[str]:
        """Fold pending cycles + traffic counters into the run's stats."""
        out = ["_total.cycles += _cycles", f"{self.counters}.cycles += _cycles"]
        for local, kind in self.counter_locals():
            if local is not None:
                out.append(f"if {local}:")
                out.append(f"    _total.{kind} += {local}")
                out.append(f"    {self.counters}.{kind} += {local}")
        return out

    def _can_fault(self) -> bool:
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
        pending = ", ".join(
            ["_cycles"] + [local or "0" for local, _ in self.counter_locals()]
        )
        self.emit(depth, f"if _cycles + {seg_len} > _limit:")
        self.emit(
            depth + 1,
            f"return _bail({self.name!r}, {pc}, ({pending}), locals())",
        )

    def deferred_from(self, first: int, call: int, assigned: int) -> int:
        """First pc of the params ``code[first:call]`` that the call takes
        as positional arguments: those after the last one whose read can
        fault.  Nothing between them and the call observes the queue, so
        their values go straight to the call; the slow loop's fault on an
        unproven read still finds every earlier param queued."""
        for pc in range(call - 1, first - 1, -1):
            if not self.safe(assigned, self.code[pc][1]):
                return pc + 1
        return first

    def emit_segment(self, depth: int, start: int, stop: int, assigned: int) -> int:
        """Emit code[start:stop] (straight line, call only at the end).

        Counter accounting is static: ``seg_len`` cycles plus the
        segment's load/store/copy totals are added at the segment's exit
        (fall-off, branch, return, or call flush), and ``self.meta``
        records per-instruction prefix deltas so a mid-segment fault can
        reconstruct the exact counter state the slow path would report.
        """
        code = self.code
        seg_len = stop - start
        d_ld = d_st = d_cp = 0
        closed = False
        # The run of params directly before a segment-ending call.
        call = first = stop - 1
        if code[call][0] == OP_CALL:
            while first > start and code[first - 1][0] == OP_PARAM:
                first -= 1
        defer_from = stop
        deferred: List[int] = []
        for offset in range(seg_len):
            pc = start + offset
            ins = code[pc]
            op = ins[0]
            if pc == first and first < call:
                defer_from = self.deferred_from(first, call, assigned)
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
                self.emit(depth, f"r{ins[1]} = _load_scalar({ins[2]!r})")
                d_ld += 1
            elif op == OP_STM_SPILL:
                self.emit(depth, f"_s{self.slot_ids[ins[1]]} = r{ins[2]}")
                d_st += 1
            elif op == OP_STM_GLOBAL:
                self.emit(depth, f"_store_scalar({ins[1]!r}, r{ins[2]})")
                d_st += 1
            elif op == OP_LOADA:
                message = f"unknown global array {ins[2]!r}"
                self.emit(depth, f"_t = _array_base_get({ins[2]!r})")
                self.emit(depth, "if _t is None:")
                self.emit(depth + 1, f"raise MachineFault({message!r})")
                self.emit(depth, f"r{ins[1]} = _t")
            elif op == OP_ALLOCA:
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
                if pc >= defer_from:
                    deferred.append(ins[1])
                else:
                    self.emit(depth, f"_argq.append(r{ins[1]})")
            elif op == OP_CALL:
                self.emit_accounting(depth, seg_len, d_ld, d_st, d_cp)
                self.emit_call(depth, pc, ins, deferred)
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

    def emit_call(self, depth: int, pc: int, ins: tuple, deferred: List[int]) -> None:
        """``call``: flush cycles first (so the callee's budget check and
        fault annotation see an up-to-date total, exactly like the slow
        loop's per-instruction counts), then the activation itself.

        When the callee takes exactly the ``deferred`` params, they are
        its positional arguments.  Otherwise they join the queue and the
        call pops its arity from the queue's end, as the slow loop does,
        with the same faults for an unknown callee or too few params.
        """
        callee = ins[1]
        self.emit(depth, "_total.cycles += _cycles")
        self.emit(depth, f"{self.counters}.cycles += _cycles")
        self.emit(depth, "_cycles = 0")
        # Everything up to here is flushed before anything can raise, so
        # the fault-time deltas for the call pc itself are all zero.
        self.meta[pc] = (self.decoded.pc_map[pc], 0, 0, 0, 0)
        arity = self.arity.get(callee)
        target = f"r{ins[2]} = " if ins[2] is not None else ""
        function = function_global(callee)
        if arity == len(deferred):
            args = ", ".join(f"r{reg}" for reg in deferred)
            self.emit(depth, f"{target}{function}({args})")
        else:
            for reg in deferred:
                self.emit(depth, f"_argq.append(r{reg})")
            if arity is None:
                message = f"call to unknown function {callee!r}"
                self.emit(depth, f"raise MachineFault({message!r})")
                return
            args = ""
            if arity:
                message = f"call to {callee} with too few queued params"
                self.emit(depth, "_n = len(_argq)")
                self.emit(depth, f"if _n < {arity}:")
                self.emit(depth + 1, f"raise MachineFault({message!r})")
                self.emit(depth, f"_a = _argq[_n - {arity}:]")
                self.emit(depth, f"del _argq[_n - {arity}:]")
                args = "*_a"
            self.emit(depth, f"{target}{function}({args})")
        self.emit(depth, "_limit = _max_cycles - _total.cycles")

    # -- whole-function assembly ---------------------------------------------

    def generate(self) -> str:
        body: List[str] = []
        self.lines = body
        if self.arms:
            self.emit(2, "_b = 0")
            self.emit(2, "while 1:")
            self.emit_dispatch_tree(3, 0, len(self.arms))
        elif self.n:
            self.emit_block_chain(2, 0)
        else:
            self.emit_exit(2)

        params = ", ".join(f"_s{self.slot_ids[slot]}" for slot in self.params)
        head = [f"def {function_global(self.name)}({params}):"]
        if self.has_alloca:
            head.append("    _mark = _memory.stack_top")
        head.append("    try:")
        head.append("        _limit = _max_cycles - _total.cycles")
        head.append("        _cycles = 0")
        counters = [local for local, _ in self.counter_locals() if local]
        spills = [f"_s{i}" for i in range(len(set(self.params)), len(self.slot_ids))]
        for names in (counters, spills):
            if names:
                head.append(f"        {' = '.join(names)} = 0")

        tail = ["    except _Bailout as _e:", "        raise _e.fault from None"]
        if self.can_fault:
            tail.extend(self._handler("MachineFault", None))
            tail.extend(self._handler("NameError", "uninit"))
        if self.has_alloca:
            # Release this activation's ``alloca`` space on every exit.
            tail.extend(["    finally:", "        _memory.stack_top = _mark"])
        return "\n".join(head + body + tail) + "\n"

    def _handler(self, exc: str, kind: Optional[str]) -> List[str]:
        """The function-level fault translator (see the module docstring)."""
        out = [f"    except {exc} as _e:"]

        def line(text: str) -> None:
            out.append("        " + text)

        if kind == "uninit":
            line("_r = _reg_of(_e)")
            line("if _r is None:")
            line("    raise")
        name = self.name
        line(f"_o, _dc, _dl, _ds, _dp = _translation({name!r}).meta[pc]")
        line("_cycles += _dc")
        for (local, _), delta in zip(self.counter_locals(), ("_dl", "_ds", "_dp")):
            if local is not None:
                line(f"{local} += {delta}")
        for text in self.flush_lines():
            line(text)
        if kind == "uninit":
            line("raise MachineFault(")
            line("    'read of uninitialized register %s in %s'")
            line(f"    % (_translation({name!r}).regs[_r], {name!r}),")
            line(f"    function={name!r}, pc=_o, cycles=_total.cycles,")
            line(") from None")
        else:
            line(f"raise _e.annotate(function={name!r}, pc=_o, cycles=_total.cycles)")
        return out


def _literal(value) -> str:
    """Python source for a ``loadi`` immediate.  ``repr`` of a non-finite
    float (``inf``, ``-inf``, ``nan``) is not an expression."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value)


#: Translations are owned by their program image; nothing is cached at
#: module level.  This empty dict stays only because
#: ``perfbench/workloads/table1.py`` clears it before every sweep.
_ARTIFACTS: Dict[bytes, PyCompiledFunction] = {}


def compile_decoded(program, decoded: DecodedFunction) -> PyCompiledFunction:
    """Translate one decoded function of ``program`` (a
    :class:`~repro.interp.machine.ProgramImage`) to Python.

    ``program`` supplies the function's parameter slots and its callees'
    arities; the result references neither it nor any machine.
    """
    emitter = _Emitter(program, decoded)
    source = emitter.generate()
    if os.environ.get("REPRO_PYCOMPILE_DUMP"):  # pragma: no cover - debug aid
        print(f"# --- pycompile {decoded.name} ---\n{source}")
    module = compile(source, f"<pycompiled {decoded.name}>", "exec")
    (code,) = [const for const in module.co_consts if isinstance(const, CodeType)]
    return PyCompiledFunction(
        name=decoded.name,
        code=code,
        meta=emitter.meta,
        regs=tuple(str(reg) for reg in decoded.regs),
        slot_names=tuple(emitter.slot_ids),
    )


def _translate(machine, image) -> Optional[PyCompiledFunction]:
    """``image``'s translation in ``machine``'s program, or None when it
    cannot be decoded or translated (the slow loop then runs it)."""
    decoded = machine._decoded_for(image)
    if decoded is None:
        return None
    started = time.perf_counter()
    try:
        return compile_decoded(machine.program, decoded)
    except Exception:
        return None
    finally:
        machine.pycompile_seconds += time.perf_counter() - started


def run_namespace(machine) -> Dict[str, object]:
    """The globals of one compiled run of ``machine.program``.

    The run's state — counters, cycle budget, parameter queue, memory
    and output — is fetched here once.  Every function starts as a
    trampoline: its first activation translates it if the image has no
    translation yet, binds it (or, if it cannot be translated, a call
    into the slow loop) under :func:`function_global`, and fetches its
    per-function counters.  The caller must ``clear()`` the namespace
    when the run ends, which frees the bound functions and the run's
    state while the translations stay with the image.
    """
    program = machine.program
    memory = machine.memory
    stats = machine.stats
    translations = program._translations
    namespace: Dict[str, object] = {
        "__builtins__": builtins,
        "MachineFault": MachineFault,
        "_Bailout": _Bailout,
        "_div": _div,
        "_mod": _mod,
        "_reg_of": _reg_of,
        "_translation": translations.__getitem__,
        "_bail": partial(_bail, machine),
        "_total": stats.total,
        "_max_cycles": machine.max_cycles,
        "_argq": machine._arg_queue,
        "_out_append": stats.output.append,
        "_memory": memory,
        "_heap": memory.heap,
        "_heap_get": memory.heap.get,
        "_mem_load": memory.load,
        "_mem_store": memory.store,
        "_load_scalar": memory.load_scalar,
        "_store_scalar": memory.store_scalar,
        "_array_base_get": memory.array_base.get,
        "_alloca": memory.alloca,
    }

    def first_activation(name, *args):
        image = program.functions[name]
        if name not in translations:
            translations[name] = _translate(machine, image)
        translation = translations[name]
        if translation is None:
            function = partial(machine._call_slow, image)
        else:
            namespace[_counters_global(name)] = stats.function(name)
            function = FunctionType(translation.code, namespace)
        namespace[function_global(name)] = function
        return function(*args)

    for name in program.functions:
        namespace[function_global(name)] = partial(first_activation, name)
    return namespace
