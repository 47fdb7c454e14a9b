"""Dependence DAGs over basic blocks, for list scheduling.

Edges (all ``earlier -> later`` in original program order):

* **register flow/anti/output** dependences — note that after register
  allocation these multiply: two independent computations funneled
  through the same physical register become serialized, which is exactly
  the allocation/scheduling tension the paper's research program targets;
* **memory order**: heap ``load``/``store`` are ordered conservatively
  (store-store, store-load, load-store; loads commute), while symbolic
  ``ldm``/``stm`` are ordered only against accesses of the *same* symbol
  (spill slots cannot alias) and calls (which may touch global scalars);
* **observable order**: ``print``, ``param``, ``call``, ``ret``, and
  ``alloca`` keep their relative order (the machine's argument queue and
  output stream are order-sensitive);
* the block terminator (branch) depends on everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..ir.iloc import Instr, Op
from .latency import LatencyModel

#: Instructions whose relative order is observable machine state.
_ORDERED_OPS = (Op.PRINT, Op.PARAM, Op.CALL, Op.RET, Op.ALLOCA)


@dataclass
class DagNode:
    """One instruction in the block DAG."""

    index: int
    instr: Instr
    succs: Dict[int, int] = field(default_factory=dict)  # index -> min latency
    preds: Set[int] = field(default_factory=set)
    priority: int = 0  # critical-path length to the block end


class BlockDag:
    """The dependence DAG of one straight-line instruction sequence."""

    def __init__(self, code: Sequence[Instr], model: LatencyModel):
        self.code = list(code)
        self.model = model
        self.nodes: List[DagNode] = [
            DagNode(i, instr) for i, instr in enumerate(self.code)
        ]
        self._build()
        self._compute_priorities()

    def _edge(self, earlier: int, later: int, latency: int) -> None:
        if earlier == later:
            return
        node = self.nodes[earlier]
        existing = node.succs.get(later)
        if existing is None or existing < latency:
            node.succs[later] = latency
        self.nodes[later].preds.add(earlier)

    def _build(self) -> None:
        code = self.code
        model = self.model
        last_def: Dict = {}
        last_uses: Dict = {}
        last_store: Optional[int] = None
        heap_loads: List[int] = []
        sym_last_write: Dict[str, int] = {}
        sym_reads: Dict[str, List[int]] = {}
        last_ordered: Optional[int] = None
        last_call: Optional[int] = None
        global_accesses: List[int] = []

        for i, instr in enumerate(code):
            # Register dependences.
            for reg in instr.uses:
                if reg in last_def:
                    producer = last_def[reg]
                    self._edge(producer, i, model.of(code[producer]))
            for reg in instr.defs:
                if reg in last_def:
                    self._edge(last_def[reg], i, 1)  # output dep
                for use_site in last_uses.get(reg, ()):
                    self._edge(use_site, i, 1)  # anti dependence
            # Memory order.
            if instr.op is Op.LOAD:
                if last_store is not None:
                    self._edge(last_store, i, model.of(code[last_store]))
                heap_loads.append(i)
            elif instr.op is Op.STORE:
                if last_store is not None:
                    self._edge(last_store, i, 1)
                for load_site in heap_loads:
                    self._edge(load_site, i, 1)
                heap_loads = []
                last_store = i
            elif instr.op in (Op.LDM, Op.STM) and instr.addr is not None:
                name = instr.addr.name
                if instr.op is Op.LDM:
                    if name in sym_last_write:
                        self._edge(sym_last_write[name], i, 1)
                    sym_reads.setdefault(name, []).append(i)
                    if instr.addr.space == "global" and last_call is not None:
                        self._edge(last_call, i, 1)
                else:
                    if name in sym_last_write:
                        self._edge(sym_last_write[name], i, 1)
                    for read_site in sym_reads.get(name, ()):
                        self._edge(read_site, i, 1)
                    sym_reads[name] = []
                    sym_last_write[name] = i
                    if instr.addr.space == "global" and last_call is not None:
                        self._edge(last_call, i, 1)
            # Observable order + calls as memory barriers for globals/heap.
            if instr.op in _ORDERED_OPS:
                if last_ordered is not None:
                    self._edge(last_ordered, i, 1)
                last_ordered = i
            if instr.op is Op.CALL:
                # A callee may read/write the heap and global scalars, so
                # the call is a two-way barrier for both.
                if last_store is not None:
                    self._edge(last_store, i, 1)
                for load_site in heap_loads:
                    self._edge(load_site, i, 1)
                heap_loads = []
                last_store = i
                for site in global_accesses:
                    self._edge(site, i, 1)
                global_accesses = []
                last_call = i
            if (
                instr.op in (Op.LDM, Op.STM)
                and instr.addr is not None
                and instr.addr.space == "global"
            ):
                global_accesses.append(i)

            for reg in instr.uses:
                last_uses.setdefault(reg, []).append(i)
            for reg in instr.defs:
                last_def[reg] = i
                last_uses[reg] = []

        # Terminator (if any) after everything.
        if code and code[-1].is_branch:
            terminator = len(code) - 1
            for i in range(terminator):
                if terminator not in self.nodes[i].succs:
                    self._edge(i, terminator, model.of(code[i]) if code[i].defs else 1)

    def _compute_priorities(self) -> None:
        for node in reversed(self.nodes):
            best = self.model.of(node.instr)
            for succ, latency in node.succs.items():
                best = max(best, latency + self.nodes[succ].priority)
            node.priority = best
