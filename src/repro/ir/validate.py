"""Structural verification of iloc code.

``check_allocated`` is run by the test suite and the benchmark harness on
every allocator's output: no virtual register may survive allocation and
no physical register index may reach ``k``.  ``check_wellformed`` performs
basic shape checks usable on any code (labels resolvable, operand counts
sane).
"""

from __future__ import annotations

from typing import Sequence, Set

from .iloc import Instr, Op, Reg


class ValidationError(AssertionError):
    """Raised when emitted code violates a structural invariant."""


_EXPECTED_SRCS = {
    Op.LOADI: 0,
    Op.NEG: 1,
    Op.NOT: 1,
    Op.I2I: 1,
    Op.LOAD: 1,
    Op.STORE: 2,
    Op.LDM: 0,
    Op.STM: 1,
    Op.LOADA: 0,
    Op.CBR: 1,
    Op.JMP: 0,
    Op.PARAM: 1,
    Op.ALLOCA: 0,
    Op.PRINT: 1,
    Op.NOP: 0,
    Op.LABEL: 0,
}


def check_wellformed(code: Sequence[Instr]) -> None:
    """Raise :class:`ValidationError` on malformed code."""
    labels: Set[str] = set()
    for instr in code:
        if instr.op is Op.LABEL:
            if instr.label in labels:
                raise ValidationError(f"duplicate label {instr.label}")
            labels.add(instr.label)
    for instr in code:
        expected = _EXPECTED_SRCS.get(instr.op)
        if expected is not None and len(instr.srcs) != expected:
            # RET and CALL have variable arity; binary ops need 2.
            raise ValidationError(f"bad operand count in {instr}")
        if instr.op is Op.JMP and instr.label not in labels:
            raise ValidationError(f"jump to unknown label {instr.label}")
        if instr.op is Op.CBR:
            for target in (instr.label, instr.label_false):
                if target not in labels:
                    raise ValidationError(f"branch to unknown label {target}")
        if instr.op in (Op.LDM, Op.STM, Op.LOADA) and instr.addr is None:
            raise ValidationError(f"missing symbol address in {instr}")


def check_allocated(code: Sequence[Instr], k: int) -> None:
    """Every operand must be a physical register with index below ``k``."""
    for instr in code:
        for reg in instr.regs():
            if reg.is_virtual:
                raise ValidationError(f"virtual register {reg} survives in {instr}")
            if reg.index >= k:
                raise ValidationError(
                    f"register {reg} out of range for k={k} in {instr}"
                )


def check_assignment(virtual_code: Sequence[Instr], assignment) -> None:
    """Independently recheck a coloring against a rebuilt interference graph.

    ``virtual_code`` is the function body *before* physical-register
    rewriting (captured by the allocators as
    ``AllocationResult.virtual_code``) and ``assignment`` maps each virtual
    register to its color.  The interference graph is rebuilt from scratch
    — same liveness, same copy refinement — and every edge must connect
    two differently colored registers.  An allocator that dropped or
    never discovered an interference (the classic silent-miscompile bug
    class) is caught *here*, structurally, instead of as a wrong answer
    three stages later.
    """
    from ..regalloc.chaitin import build_interference  # late: layering

    graph = build_interference(list(virtual_code))
    for node in graph.nodes:
        for neighbor in node.adj:
            for a in node.members:
                color_a = assignment.get(a)
                if color_a is None:
                    continue
                for b in neighbor.members:
                    if a >= b:
                        continue  # each unordered pair once
                    color_b = assignment.get(b)
                    if color_b is not None and color_a == color_b:
                        raise ValidationError(
                            f"interfering registers {a} and {b} share "
                            f"color {color_a}"
                        )


def used_registers(code: Sequence[Instr]) -> Set[Reg]:
    out: Set[Reg] = set()
    for instr in code:
        out.update(instr.regs())
    return out
