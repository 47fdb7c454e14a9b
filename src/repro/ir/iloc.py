"""The iloc-like low-level intermediate representation.

The paper attaches Rice ``iloc`` statements to PDG region nodes; register
allocation rewrites the virtual-register operands of those statements, and
an iloc interpreter counts executed cycles.  This module defines our
equivalent: a small load/store three-address code.

Design notes
------------

* **Registers** (:class:`Reg`) are either virtual (``%v7``, unbounded) or
  physical (``r3``, indices ``0..k-1``).  The front end generates code that
  references only virtual registers; an allocator must leave only physical
  registers behind.
* **Memory** is split into two disjoint spaces, reflected in the two kinds
  of memory instruction:

  - ``load``/``store`` use a *register-held address* and access the data
    heap (arrays, which can alias through array parameters);
  - ``ldm``/``stm`` use a *symbolic address* (:class:`Symbol`) and access
    either a compiler-private spill slot (``space="spill"``, per activation,
    invisible to callees) or a global scalar (``space="global"``).

  This mirrors the paper's Figure 6, where spill code is ``ldm r2, 20`` /
  ``stm 20, r2`` with direct addresses, and makes the phase-3 peephole's
  "no redefinition in between" reasoning exact rather than alias-guessing.
* **Calls** transfer scalar arguments by value and array arguments by base
  address; each activation has its own register file and spill-slot frame,
  so allocation is strictly per-procedure, exactly as in the paper (which
  measures each routine separately and never discusses calling-convention
  interference).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

Number = Union[int, float]


@dataclass(frozen=True, eq=False)
class Reg:
    """A register operand: ``kind`` is ``"v"`` (virtual) or ``"p"`` (physical).

    The comparison/hash dunders are hand-written rather than
    dataclass-generated: registers are the atoms every allocator set,
    sort, and interference map is made of, and the generated versions
    allocate a field tuple per operation.  Semantics are unchanged
    (ordered by ``(kind, index)``, equal on both fields); only the hash
    *values* differ — a deterministic function of the fields instead of
    tuple-of-str hashing, which no output may depend on anyway since
    string hashing is per-process randomized.
    """

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("v", "p"):
            raise ValueError(f"bad register kind {self.kind!r}")
        object.__setattr__(
            self, "_hash", (self.index << 1) | (self.kind == "v")
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is Reg:
            return self.index == other.index and self.kind == other.kind
        return NotImplemented

    def __lt__(self, other) -> bool:
        if other.__class__ is Reg:
            if self.kind == other.kind:
                return self.index < other.index
            return self.kind < other.kind
        return NotImplemented

    def __le__(self, other) -> bool:
        if other.__class__ is Reg:
            if self.kind == other.kind:
                return self.index <= other.index
            return self.kind < other.kind
        return NotImplemented

    def __gt__(self, other) -> bool:
        if other.__class__ is Reg:
            if self.kind == other.kind:
                return self.index > other.index
            return self.kind > other.kind
        return NotImplemented

    def __ge__(self, other) -> bool:
        if other.__class__ is Reg:
            if self.kind == other.kind:
                return self.index >= other.index
            return self.kind > other.kind
        return NotImplemented

    def __deepcopy__(self, memo) -> "Reg":
        # Immutable value object: share it, like deepcopy shares strings.
        return self

    @property
    def is_virtual(self) -> bool:
        return self.kind == "v"

    @property
    def is_physical(self) -> bool:
        return self.kind == "p"

    def __str__(self) -> str:
        return f"%v{self.index}" if self.kind == "v" else f"r{self.index}"


def vreg(index: int) -> Reg:
    """Shorthand constructor for a virtual register."""
    return Reg("v", index)


def preg(index: int) -> Reg:
    """Shorthand constructor for a physical register."""
    return Reg("p", index)


@dataclass(frozen=True, order=True)
class Symbol:
    """A symbolic direct address used by ``ldm``/``stm``.

    ``space`` is ``"spill"`` for compiler-generated spill slots (private to
    one activation of one function) or ``"global"`` for global scalar
    variables (shared, clobberable by calls).
    """

    name: str
    space: str = "spill"

    def __post_init__(self) -> None:
        if self.space not in ("spill", "global"):
            raise ValueError(f"bad symbol space {self.space!r}")

    def __deepcopy__(self, memo) -> "Symbol":
        # Immutable value object: share it, like deepcopy shares strings.
        return self

    def __str__(self) -> str:
        return f"[{self.name}]"


class Op(enum.Enum):
    """Every iloc opcode."""

    LOADI = "loadI"    # imm -> dst
    ADD = "add"
    SUB = "sub"
    MUL = "mult"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    CMP_LT = "cmp_LT"
    CMP_LE = "cmp_LE"
    CMP_GT = "cmp_GT"
    CMP_GE = "cmp_GE"
    CMP_EQ = "cmp_EQ"
    CMP_NE = "cmp_NE"
    AND = "and"
    OR = "or"
    NOT = "not"
    I2I = "i2i"        # register copy ("copy statement" in the paper)
    LOAD = "load"      # heap load,  srcs=[addr] -> dst
    STORE = "store"    # heap store, srcs=[value, addr]
    LDM = "ldm"        # direct load,  addr=Symbol -> dst
    STM = "stm"        # direct store, addr=Symbol, srcs=[value]
    LOADA = "loada"    # address of global array, addr=Symbol -> dst
    CBR = "cbr"        # srcs=[cond], label_true / label_false
    JMP = "jmp"        # label_true
    PARAM = "param"    # srcs=[value]; queues one outgoing argument
    CALL = "call"      # callee, consumes queued arguments -> dst (optional)
    RET = "ret"        # srcs=[value] (optional)
    ALLOCA = "alloca"  # imm=element count -> dst (base address)
    PRINT = "print"    # srcs=[value]
    NOP = "nop"
    LABEL = "label"    # pseudo-instruction, linear code only


_BINARY_OPS = {
    Op.ADD,
    Op.SUB,
    Op.MUL,
    Op.DIV,
    Op.MOD,
    Op.CMP_LT,
    Op.CMP_LE,
    Op.CMP_GT,
    Op.CMP_GE,
    Op.CMP_EQ,
    Op.CMP_NE,
    Op.AND,
    Op.OR,
}

#: Opcodes that terminate a basic block.
BRANCH_OPS = (Op.CBR, Op.JMP, Op.RET)

#: Opcodes counted as "loads" / "stores" / "copies" in Table 1's decomposition.
LOAD_OPS = (Op.LOAD, Op.LDM)
STORE_OPS = (Op.STORE, Op.STM)
COPY_OPS = (Op.I2I,)


class Instr:
    """One iloc instruction.

    Instances are *mutable* and are shared by identity between the PDG and
    its linearization, so dataflow facts computed on linear code can be
    queried per PDG item.  Registers are rewritten in place by allocators.
    """

    __slots__ = (
        "op",
        "srcs",
        "dst",
        "imm",
        "addr",
        "callee",
        "label",
        "label_false",
    )

    def __init__(
        self,
        op: Op,
        srcs: Optional[List[Reg]] = None,
        dst: Optional[Reg] = None,
        imm: Optional[Number] = None,
        addr: Optional[Symbol] = None,
        callee: Optional[str] = None,
        label: Optional[str] = None,
        label_false: Optional[str] = None,
    ):
        self.op = op
        self.srcs: List[Reg] = list(srcs) if srcs else []
        self.dst = dst
        self.imm = imm
        self.addr = addr
        self.callee = callee
        self.label = label
        self.label_false = label_false

    # -- operand views -------------------------------------------------------

    @property
    def uses(self) -> List[Reg]:
        """Registers read by this instruction."""
        return self.srcs

    @property
    def defs(self) -> List[Reg]:
        """Registers written by this instruction."""
        return [self.dst] if self.dst is not None else []

    def regs(self) -> List[Reg]:
        """All register operands (uses then defs)."""
        return self.srcs + self.defs

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_copy(self) -> bool:
        return self.op is Op.I2I

    # -- mutation -------------------------------------------------------------

    def rewrite_regs(self, mapping: Dict[Reg, Reg]) -> None:
        """Replace register operands according to ``mapping`` (in place)."""
        self.srcs = [mapping.get(reg, reg) for reg in self.srcs]
        if self.dst is not None:
            self.dst = mapping.get(self.dst, self.dst)

    def clone(self) -> "Instr":
        """A fresh, independent copy of this instruction."""
        return Instr(
            self.op,
            list(self.srcs),
            self.dst,
            self.imm,
            self.addr,
            self.callee,
            self.label,
            self.label_false,
        )

    def __deepcopy__(self, memo: dict) -> "Instr":
        """Every field is immutable or a shared-by-identity value object
        (:class:`Reg`, :class:`Symbol`, strings, numbers), so a deep copy
        is exactly :meth:`clone` — no per-field recursion needed.
        ``copy.deepcopy`` handles the memo around this hook, preserving
        aliasing between copies of the same instruction."""
        return self.clone()

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instr {self}>"

    def __str__(self) -> str:
        op = self.op
        if op is Op.LABEL:
            return f"{self.label}:"
        if op is Op.LOADI:
            return f"loadI {self.imm!r} => {self.dst}"
        if op in _BINARY_OPS:
            return f"{op.value} {self.srcs[0]}, {self.srcs[1]} => {self.dst}"
        if op in (Op.NEG, Op.NOT):
            return f"{op.value} {self.srcs[0]} => {self.dst}"
        if op is Op.I2I:
            return f"i2i {self.srcs[0]} => {self.dst}"
        if op is Op.LOAD:
            return f"load {self.srcs[0]} => {self.dst}"
        if op is Op.STORE:
            return f"store {self.srcs[0]} => {self.srcs[1]}"
        if op is Op.LDM:
            return f"ldm {self.addr} => {self.dst}"
        if op is Op.STM:
            return f"stm {self.addr}, {self.srcs[0]}"
        if op is Op.LOADA:
            return f"loada {self.addr} => {self.dst}"
        if op is Op.CBR:
            return f"cbr {self.srcs[0]} -> {self.label}, {self.label_false}"
        if op is Op.JMP:
            return f"jmp {self.label}"
        if op is Op.PARAM:
            return f"param {self.srcs[0]}"
        if op is Op.CALL:
            args = ", ".join(str(reg) for reg in self.srcs)
            dest = f" => {self.dst}" if self.dst is not None else ""
            return f"call {self.callee}({args}){dest}"
        if op is Op.RET:
            return f"ret {self.srcs[0]}" if self.srcs else "ret"
        if op is Op.ALLOCA:
            return f"alloca {self.imm} => {self.dst}"
        if op is Op.PRINT:
            return f"print {self.srcs[0]}"
        return op.value


# -- convenience constructors -------------------------------------------------


def loadi(value: Number, dst: Reg) -> Instr:
    return Instr(Op.LOADI, imm=value, dst=dst)


def binary(op: Op, left: Reg, right: Reg, dst: Reg) -> Instr:
    if op not in _BINARY_OPS:
        raise ValueError(f"{op} is not a binary opcode")
    return Instr(op, srcs=[left, right], dst=dst)


def copy(src: Reg, dst: Reg) -> Instr:
    return Instr(Op.I2I, srcs=[src], dst=dst)


def load(addr: Reg, dst: Reg) -> Instr:
    return Instr(Op.LOAD, srcs=[addr], dst=dst)


def store(value: Reg, addr: Reg) -> Instr:
    return Instr(Op.STORE, srcs=[value, addr])


def ldm(addr: Symbol, dst: Reg) -> Instr:
    return Instr(Op.LDM, addr=addr, dst=dst)


def stm(addr: Symbol, value: Reg) -> Instr:
    return Instr(Op.STM, addr=addr, srcs=[value])


def label(name: str) -> Instr:
    return Instr(Op.LABEL, label=name)


def jmp(target: str) -> Instr:
    return Instr(Op.JMP, label=target)


def cbr(cond: Reg, if_true: str, if_false: str) -> Instr:
    return Instr(Op.CBR, srcs=[cond], label=if_true, label_false=if_false)
