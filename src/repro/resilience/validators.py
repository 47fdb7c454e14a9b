"""Independent semantic validators for the transforming phases.

PR 1's validate stage rechecks *allocation* decisions (coloring against a
rebuilt interference graph, spill-slot discipline).  The transformations
that come after allocation — spill-code motion out of loops, the Figure-6
peephole, and the list scheduler — previously trusted their own analyses:
a bug there miscompiled silently until the interpreter diverged.  This
module closes that gap with one independent checker per phase, each
recomputing the transformation's safety argument from scratch:

``validate_motion``
    Replays every hoist certificate against the *pre-motion* snapshot:
    recomputes which register carries the slot, proves the hoisted
    preload is anticipated (the loop's first interior access is a load),
    runs a from-scratch forward must-analysis showing the carried
    register mirrors the slot on **all paths** through the loop
    (including the back edge), and checks the post-motion PDG has the
    preload, the trailing store exactly when the loop wrote the slot,
    and no leftover interior traffic.

``validate_schedule``
    Re-derives the must-precede relation of every basic block from the
    *original* instruction order — register flow/anti/output overlap,
    conflicting memory accesses, observable-operation order, terminator
    last — with pairwise rules written independently of
    :mod:`repro.sched.dag`, then checks the scheduled order is a
    topological order of that relation, permutes each block exactly, and
    never regresses the simulated schedule length.

``validate_peephole``
    Symbolically executes each basic-block window before and after the
    Figure-6 rewrites and proves the final register file, symbolic
    memory, heap state, and observable event trace are equal.

The SSA spill-then-color rung (:mod:`repro.regalloc.ssaspill`) carries a
certificate with two snapshots, checked by three further validators:

``validate_ssa_construction``
    Structural SSA invariants (single defs, phi arity, definitions
    dominate uses) plus two semantic rechecks on the aligned pre-rename
    snapshot: every use must resolve to the *nearest* dominating
    definition of its original register (a shadowed — stale — definition
    on the renaming stack is rejected even though it, too, dominates),
    and the original definitions transitively feeding each renamed use
    (through phis) must all appear among that use's independently
    recomputed reaching definitions.

``validate_destruction``
    Aligns the post-spill SSA snapshot with the destructed code block by
    block, proves everything outside the inserted copy windows survived
    untouched, then symbolically replays each window at the *location*
    (color) level: every phi destination must end up holding the value
    its incoming argument held on entry to the window, and no value live
    through the edge may be clobbered — the lost-copy and swap proofs.

``validate_chordal``
    Rebuilds SSA liveness and interference from the certificate and
    re-proves the zero-coloring-time-spill claim: MAXLIVE <= k, the
    elimination order is perfect (each value's earlier neighbors form a
    clique) with fewer than k earlier neighbors per value, the coloring
    is proper in [0, k), and no spill slot appears in the destructed
    code beyond those certified by the spill phase and cycle breaking.

All of them raise typed :class:`~repro.resilience.errors.StageError`
subclasses carrying the stage context plus the precise region/block/pc
where the proof failed, so a caught corruption is debuggable — and
transportable through the ``--jobs N`` process pool — without re-running
anything.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..ir.iloc import Instr, Op, Reg, Symbol
from .errors import (
    ChordalValidationError,
    DestructValidationError,
    MotionValidationError,
    PeepholeValidationError,
    ScheduleValidationError,
    SSAValidationError,
    StageContext,
)

#: Instructions whose relative order is observable machine state (kept in
#: sync with the interpreter's semantics, not imported from the scheduler
#: — the validator must not share the code it checks).
_OBSERVABLE_OPS = (Op.PRINT, Op.PARAM, Op.CALL, Op.RET, Op.ALLOCA)


def _extend(context: StageContext, **extra: Any) -> StageContext:
    merged = dict(context.extra)
    merged.update(extra)
    return replace(context, extra=merged)


# ---------------------------------------------------------------------------
# Motion validation
# ---------------------------------------------------------------------------


def validate_motion(func, result, context: StageContext) -> None:
    """Recheck every spill-code hoist of one RAP run from scratch.

    ``func`` is the post-motion PDG function and ``result`` the
    :class:`~repro.regalloc.rap.allocator.RAPResult` carrying the hoist
    certificates plus the pre-motion snapshot.  Raises
    :class:`MotionValidationError` on the first unsound hoist.
    """
    hoists = getattr(result.motion, "hoists", [])
    if not hoists:
        return
    snapshot = result.pre_motion_code
    if snapshot is None:
        raise MotionValidationError(
            "motion reported hoists but captured no pre-motion snapshot",
            _extend(context, phase="motion"),
        )
    regions = {region.name: region for region in func.walk_regions()}
    for cert in hoists:
        ctx = _extend(
            context,
            phase="motion",
            loop=cert.loop_name,
            slot=str(cert.slot),
        )
        span = result.loop_spans.get(cert.loop_name)
        if span is None:
            raise MotionValidationError(
                f"hoisted loop {cert.loop_name} has no recorded span",
                ctx,
            )
        _check_one_hoist(func, regions, cert, snapshot, span, ctx)


def _check_one_hoist(
    func,
    regions: Dict[str, Any],
    cert,
    snapshot: List[Instr],
    span: Tuple[int, int],
    ctx: StageContext,
) -> None:
    start, end = span
    body = snapshot[start:end]
    slot = cert.slot

    interior = [
        (i, instr)
        for i, instr in enumerate(body)
        if instr.op in (Op.LDM, Op.STM) and instr.addr == slot
    ]
    if not interior:
        raise MotionValidationError(
            f"hoist of {slot} out of {cert.loop_name} deleted no interior "
            f"access (nothing to hoist)",
            ctx,
        )

    # One physical register must carry all of the slot's interior traffic.
    carriers = {
        instr.dst if instr.op is Op.LDM else instr.srcs[0]
        for _, instr in interior
    }
    if len(carriers) != 1:
        raise MotionValidationError(
            f"interior accesses of {slot} in {cert.loop_name} use several "
            f"registers {sorted(map(str, carriers))}; a hoist needs one",
            ctx,
        )
    carrier = carriers.pop()
    if not carrier.is_physical:
        raise MotionValidationError(
            f"interior accesses of {slot} use non-physical {carrier}", ctx
        )

    # Anticipation: the loop's first interior access must be the load the
    # preload replaces — hoisting around a store-first loop would need a
    # preload no store dominates.
    if interior[0][1].op is not Op.LDM:
        raise MotionValidationError(
            f"first interior access of {slot} in {cert.loop_name} is a "
            f"store; the hoisted preload is not anticipated",
            ctx,
        )
    had_store = any(instr.op is Op.STM for _, instr in interior)

    # From-scratch must-analysis over the pre-motion loop body: with the
    # preload establishing "carrier == slot" at loop entry, the fact must
    # hold at every interior load (so deleting it is a no-op) and at every
    # non-return loop exit (so the trailing store writes the final value).
    violations = _carrier_mirrors_slot(body, slot, carrier)
    for kind, position in violations:
        instr = body[position] if position < len(body) else None
        if kind == "load":
            raise MotionValidationError(
                f"{carrier} does not mirror {slot} on every path reaching "
                f"the deleted load at {cert.loop_name}+{position} "
                f"({instr})",
                _extend(ctx, pc=start + position),
            )
        if kind == "exit" and had_store:
            raise MotionValidationError(
                f"{carrier} does not mirror {slot} on the loop exit at "
                f"{cert.loop_name}+{position}; the trailing store would "
                f"write a stale value",
                _extend(ctx, pc=start + position),
            )

    # Post-motion structure: the PDG must carry the preload (into the
    # carrier register), the trailing store exactly when the loop wrote
    # the slot, and no leftover interior traffic.
    loop = regions.get(cert.loop_name)
    if loop is None:
        raise MotionValidationError(
            f"hoisted loop {cert.loop_name} vanished from the PDG", ctx
        )
    for instr in loop.walk_instrs():
        if instr.op in (Op.LDM, Op.STM) and instr.addr == slot:
            raise MotionValidationError(
                f"interior access of {slot} survives inside "
                f"{cert.loop_name} after its hoist ({instr})",
                ctx,
            )
    parents = func.parent_map()
    if loop not in parents:
        raise MotionValidationError(
            f"hoisted loop {cert.loop_name} has no parent region", ctx
        )
    parent, _ = parents[loop]
    preload = _spill_node_access(parent, f"pre-{cert.loop_name}", Op.LDM, slot)
    if preload is None:
        raise MotionValidationError(
            f"no pre-loop spill node loads {slot} before {cert.loop_name}",
            ctx,
        )
    if preload.dst != carrier:
        raise MotionValidationError(
            f"preload of {slot} targets {preload.dst}, but the loop "
            f"carries the slot in {carrier}",
            ctx,
        )
    trailing = _spill_node_access(parent, f"post-{cert.loop_name}", Op.STM, slot)
    if had_store and trailing is None:
        raise MotionValidationError(
            f"loop {cert.loop_name} wrote {slot} but no trailing store "
            f"follows it; the final value is lost",
            ctx,
        )
    if not had_store and trailing is not None:
        raise MotionValidationError(
            f"loop {cert.loop_name} never wrote {slot} yet a trailing "
            f"store follows it",
            ctx,
        )
    if trailing is not None and trailing.srcs[0] != carrier:
        raise MotionValidationError(
            f"trailing store of {slot} reads {trailing.srcs[0]}, but the "
            f"loop carries the slot in {carrier}",
            ctx,
        )


def _spill_node_access(
    parent, note: str, op: Op, slot: Symbol
) -> Optional[Instr]:
    """The ``op`` access of ``slot`` inside a spill node with ``note``
    among ``parent``'s items, or ``None``."""
    from ..pdg.nodes import Region

    for item in parent.items:
        if not isinstance(item, Region) or item.kind != "spill":
            continue
        if item.note != note:
            continue
        for instr in item.walk_instrs():
            if instr.op is op and instr.addr == slot:
                return instr
    return None


def _carrier_mirrors_slot(
    body: Sequence[Instr], slot: Symbol, carrier: Reg
) -> List[Tuple[str, int]]:
    """Forward must-analysis of the fact "``carrier`` holds ``slot``'s
    current value" over the loop body's own control flow.

    The body is a self-contained span of the pre-motion linearization
    (loop header label first, exit label last, back edge included as a
    branch to an interior label).  Entry is seeded TRUE — the hoisted
    preload establishes the fact — and the meet over paths is AND, so a
    single path that breaks the mirror kills it.  Returns violations:
    ``("load", i)`` for interior loads of the slot the fact does not
    reach, ``("exit", i)`` for non-return exits where it does not hold.
    """
    n = len(body)
    labels = {
        instr.label: i for i, instr in enumerate(body) if instr.op is Op.LABEL
    }

    def successors(i: int) -> List[int]:
        """Successor positions; ``n`` stands for the loop exit."""
        instr = body[i]
        if instr.op is Op.CBR:
            out = []
            for target in (instr.label, instr.label_false):
                out.append(labels.get(target, n))
            return out
        if instr.op is Op.JMP:
            return [labels.get(instr.label, n)]
        if instr.op is Op.RET:
            return []  # function exit: the trailing store never runs
        return [i + 1] if i + 1 < n else [n]

    def transfer(i: int, fact: bool) -> bool:
        instr = body[i]
        if instr.op is Op.LDM and instr.addr == slot and instr.dst == carrier:
            return True
        if instr.op is Op.STM and instr.addr == slot:
            return instr.srcs[0] == carrier
        if carrier in instr.defs:
            return False
        return fact

    # Optimistic initialization, entry forced TRUE, iterate to fixpoint.
    fact_in = [True] * (n + 1)
    entry_fact = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            preds_fact = entry_fact if i == 0 else True
            incoming = [preds_fact] if i == 0 else []
            for j in range(n):
                if i in successors(j):
                    incoming.append(transfer(j, fact_in[j]))
            new = all(incoming) if incoming else (i == 0)
            if new != fact_in[i]:
                fact_in[i] = new
                changed = True

    violations: List[Tuple[str, int]] = []
    for i, instr in enumerate(body):
        if instr.op is Op.LDM and instr.addr == slot and not fact_in[i]:
            violations.append(("load", i))
    for i in range(n):
        if n in successors(i) and not transfer(i, fact_in[i]):
            violations.append(("exit", i))
    return violations


# ---------------------------------------------------------------------------
# Schedule validation
# ---------------------------------------------------------------------------


def validate_schedule(
    original: Sequence[Instr],
    scheduled: Sequence[Instr],
    context: StageContext,
    model=None,
) -> None:
    """Prove ``scheduled`` is a sound reordering of ``original``.

    Blocks must be permuted in place (same positions, labels pinned,
    terminator last), every block's scheduled order must be a topological
    order of the must-precede relation re-derived from the original
    order, and the simulated in-order completion time must not regress.
    Raises :class:`ScheduleValidationError` on the first violation.
    """
    from ..cfg.graph import CFG
    from ..sched.latency import LatencyModel
    from ..sched.list_scheduler import simulate_block

    model = model or LatencyModel()
    original = list(original)
    scheduled = list(scheduled)
    ctx = _extend(context, phase="schedule")
    if len(original) != len(scheduled):
        raise ScheduleValidationError(
            f"scheduler changed the instruction count "
            f"({len(original)} -> {len(scheduled)})",
            ctx,
        )

    cfg = CFG(original)
    for block in cfg.blocks:
        before = original[block.start:block.end]
        after = scheduled[block.start:block.end]
        bctx = _extend(ctx, block=block.index, pc=block.start)
        before_ids = sorted(id(instr) for instr in before)
        after_ids = sorted(id(instr) for instr in after)
        if before_ids != after_ids:
            raise ScheduleValidationError(
                f"block {block.index} is not a permutation of its "
                f"original instructions (moved across a block boundary, "
                f"dropped, or duplicated)",
                bctx,
            )
        position = {id(instr): i for i, instr in enumerate(after)}
        for i, a in enumerate(before):
            if a.op is Op.LABEL and position[id(a)] != i:
                raise ScheduleValidationError(
                    f"label {a.label} moved inside block {block.index}",
                    bctx,
                )
        if before and before[-1].is_branch:
            if after[-1] is not before[-1]:
                raise ScheduleValidationError(
                    f"terminator {before[-1]} is no longer last in block "
                    f"{block.index}",
                    bctx,
                )
        for i in range(len(before)):
            for j in range(i + 1, len(before)):
                if not _must_precede(before[i], before[j]):
                    continue
                if position[id(before[i])] > position[id(before[j])]:
                    raise ScheduleValidationError(
                        f"scheduled order of block {block.index} violates "
                        f"the dependence '{before[i]}' -> '{before[j]}'",
                        _extend(bctx, earlier=str(before[i]), later=str(before[j])),
                    )
        body_before = [x for x in before if x.op is not Op.LABEL]
        body_after = [x for x in after if x.op is not Op.LABEL]
        length_before = simulate_block(body_before, model)
        length_after = simulate_block(body_after, model)
        if length_after > length_before:
            raise ScheduleValidationError(
                f"block {block.index} schedule regressed "
                f"({length_before} -> {length_after} cycles)",
                bctx,
            )


def _must_precede(a: Instr, b: Instr) -> bool:
    """Must ``a`` stay before ``b``?  ``a`` precedes ``b`` in original
    program order.  Pairwise re-derivation of the dependence rules —
    deliberately *not* shared with :class:`repro.sched.dag.BlockDag`."""
    a_defs, b_defs = set(a.defs), set(b.defs)
    if a_defs & set(b.uses) or set(a.uses) & b_defs or a_defs & b_defs:
        return True
    heap = (Op.LOAD, Op.STORE)
    if a.op in heap and b.op in heap and Op.STORE in (a.op, b.op):
        return True
    if (a.op is Op.CALL and b.op in heap) or (a.op in heap and b.op is Op.CALL):
        return True
    direct = (Op.LDM, Op.STM)
    if a.op in direct and b.op in direct:
        if (
            a.addr is not None
            and b.addr is not None
            and a.addr.name == b.addr.name
            and Op.STM in (a.op, b.op)
        ):
            return True
    for first, second in ((a, b), (b, a)):
        if (
            first.op is Op.CALL
            and second.op in direct
            and second.addr is not None
            and second.addr.space == "global"
        ):
            return True
    if a.op in _OBSERVABLE_OPS and b.op in _OBSERVABLE_OPS:
        return True
    return False


# ---------------------------------------------------------------------------
# Peephole validation
# ---------------------------------------------------------------------------


def validate_peephole(
    before: Sequence[Instr],
    after: Sequence[Instr],
    context: StageContext,
) -> None:
    """Prove the Figure-6 rewrites preserved every basic block's
    semantics by symbolic execution.

    Both code lists are split at the shared boundary instructions (labels
    and branches, which the peephole passes through untouched); each
    before/after window pair is executed symbolically from an identical
    fresh state, and the final register file, symbolic memory, heap
    state, and observable event trace must be equal.  Raises
    :class:`PeepholeValidationError` on the first disagreement.
    """
    ctx = _extend(context, phase="peephole")
    bounds_before, windows_before = _split_windows(before)
    bounds_after, windows_after = _split_windows(after)
    # The before snapshot is a clone, so boundaries compare structurally,
    # not by identity.
    keys_before = [_boundary_key(x) for x in bounds_before]
    keys_after = [_boundary_key(x) for x in bounds_after]
    if keys_before != keys_after:
        raise PeepholeValidationError(
            "peephole changed the block structure (a label or branch was "
            "added, dropped, or reordered)",
            ctx,
        )
    for index, (win_before, win_after) in enumerate(
        zip(windows_before, windows_after)
    ):
        state_before = _sym_exec(win_before)
        state_after = _sym_exec(win_after)
        mismatch = _first_mismatch(state_before, state_after)
        if mismatch is not None:
            what, detail = mismatch
            raise PeepholeValidationError(
                f"window {index} is not equivalent after the peephole: "
                f"{what} differs ({detail})",
                _extend(ctx, window=index, component=what),
            )


def _boundary_key(instr: Instr) -> Tuple[Any, ...]:
    """Structural identity of a window boundary (label or branch)."""
    return (
        instr.op,
        tuple(instr.srcs),
        instr.dst,
        instr.addr,
        instr.label,
        instr.label_false,
        getattr(instr, "imm", None),
        getattr(instr, "callee", None),
    )


def _split_windows(
    code: Sequence[Instr],
) -> Tuple[List[Instr], List[List[Instr]]]:
    """Split at labels/branches; returns (boundaries, windows).  There is
    always one more window than boundaries (possibly empty windows)."""
    boundaries: List[Instr] = []
    windows: List[List[Instr]] = [[]]
    for instr in code:
        if instr.op is Op.LABEL or instr.is_branch:
            boundaries.append(instr)
            windows.append([])
        else:
            windows[-1].append(instr)
    return boundaries, windows


class _SymState:
    """Final symbolic state of one window execution."""

    def __init__(self) -> None:
        self.regs: Dict[Reg, Any] = {}
        self.mem: Dict[Symbol, Any] = {}
        self.heap: Any = ("heap0",)
        self.global_epoch: Any = ("g0",)
        self.trace: List[Any] = []


def _sym_exec(window: Sequence[Instr]) -> _SymState:
    """Execute one straight-line window over symbolic values.

    Values are hash-consed expression tuples, so two executions that
    compute the same thing produce structurally equal values — no
    nondeterministic fresh-value counters."""
    state = _SymState()

    def reg(r: Reg) -> Any:
        return state.regs.get(r, ("init", r))

    def mem_read(addr: Symbol) -> Any:
        if addr in state.mem:
            return state.mem[addr]
        if addr.space == "global":
            return ("gmem", addr.name, state.global_epoch)
        return ("mem0", addr.name)

    for instr in window:
        op = instr.op
        if op is Op.LOADI:
            state.regs[instr.dst] = ("const", instr.imm)
        elif op is Op.I2I:
            state.regs[instr.dst] = reg(instr.srcs[0])
        elif op is Op.LDM:
            state.regs[instr.dst] = mem_read(instr.addr)
        elif op is Op.STM:
            state.mem[instr.addr] = reg(instr.srcs[0])
        elif op is Op.LOADA:
            state.regs[instr.dst] = ("base", instr.addr.name, instr.addr.space)
        elif op is Op.LOAD:
            state.regs[instr.dst] = ("heapload", state.heap, reg(instr.srcs[0]))
        elif op is Op.STORE:
            state.heap = (
                "heapstore",
                state.heap,
                reg(instr.srcs[1]),
                reg(instr.srcs[0]),
            )
        elif op is Op.PRINT:
            state.trace.append(("print", reg(instr.srcs[0])))
        elif op is Op.PARAM:
            state.trace.append(("param", reg(instr.srcs[0])))
        elif op is Op.ALLOCA:
            token = ("alloca", len(state.trace), instr.imm)
            state.trace.append(token)
            state.regs[instr.dst] = token
        elif op is Op.CALL:
            index = len(state.trace)
            state.trace.append(
                (
                    "call",
                    instr.callee,
                    tuple(reg(r) for r in instr.srcs),
                    state.heap,
                    state.global_epoch,
                )
            )
            # A callee may write the heap and any global scalar, but can
            # never touch this activation's spill slots.
            state.heap = ("postcall-heap", index)
            state.global_epoch = ("postcall", index)
            for addr in [a for a in state.mem if a.space == "global"]:
                del state.mem[addr]
            if instr.dst is not None:
                state.regs[instr.dst] = ("callret", index)
        elif op is Op.NOP:
            pass
        else:
            # Arithmetic / comparison / logic: a pure function of the
            # source values.
            state.regs[instr.dst] = (
                op.value,
                tuple(reg(r) for r in instr.srcs),
            )

    # Normalize away entries equal to their defaults, so "wrote back the
    # value that was already there" compares equal to "never wrote".
    for r in [r for r, v in state.regs.items() if v == ("init", r)]:
        del state.regs[r]
    for addr in list(state.mem):
        default = (
            ("gmem", addr.name, state.global_epoch)
            if addr.space == "global"
            else ("mem0", addr.name)
        )
        if state.mem[addr] == default:
            del state.mem[addr]
    return state


def _first_mismatch(
    a: _SymState, b: _SymState
) -> Optional[Tuple[str, str]]:
    if a.trace != b.trace:
        for i, (x, y) in enumerate(zip(a.trace, b.trace)):
            if x != y:
                return "observable trace", f"event {i}: {x} vs {y}"
        return "observable trace", f"lengths {len(a.trace)} vs {len(b.trace)}"
    if a.heap != b.heap:
        return "heap state", f"{a.heap} vs {b.heap}"
    if a.regs != b.regs:
        for r in sorted(set(a.regs) | set(b.regs)):
            va = a.regs.get(r, ("init", r))
            vb = b.regs.get(r, ("init", r))
            if va != vb:
                return "register file", f"{r}: {va} vs {vb}"
    if a.mem != b.mem:
        for addr in sorted(set(a.mem) | set(b.mem)):
            va, vb = a.mem.get(addr), b.mem.get(addr)
            if va != vb:
                return "memory", f"{addr}: {va} vs {vb}"
    return None


# ---------------------------------------------------------------------------
# SSA construction validation
# ---------------------------------------------------------------------------


def validate_ssa_construction(cert, context: StageContext) -> None:
    """Recheck SSA construction from the allocator's certificate.

    ``cert`` (:class:`~repro.regalloc.ssaspill.SSACert`) carries the
    renamed code, the phis, and a 1:1 position-aligned clone of the code
    *before* renaming.  Structural invariants come first (single
    definitions, phi arity, dominance of defs over uses); then the two
    semantic rechecks described in the module docstring.  Raises
    :class:`SSAValidationError` on the first violation.
    """
    from ..cfg.dominators import DominatorTree
    from ..cfg.graph import CFG
    from ..cfg.reachdefs import chains_for

    ctx = _extend(context, phase="ssa-construct")
    pre, renamed = cert.pre_ssa, cert.renamed
    if len(pre) != len(renamed):
        raise SSAValidationError(
            f"pre-rename snapshot has {len(pre)} instructions but the "
            f"renamed code has {len(renamed)} (alignment lost)",
            ctx,
        )
    cfg = CFG(renamed)
    dom = DominatorTree(cfg)
    blocks = {block.index: block for block in cfg.blocks}
    block_of = [0] * len(renamed)
    for block in cfg.blocks:
        for index in range(block.start, block.end):
            block_of[index] = block.index

    # --- structure: unique definitions, known origins, phi arity -------
    _PHI_TOP = -1  # phis define at the top of their block
    def_site: Dict[Reg, Tuple[int, int]] = {}  # value -> (block, position)

    def record_def(value: Reg, block_index: int, position: int) -> None:
        if value in def_site:
            raise SSAValidationError(
                f"SSA value {value} has multiple definitions", ctx
            )
        if value not in cert.origin:
            raise SSAValidationError(
                f"defined value {value} has no recorded origin", ctx
            )
        def_site[value] = (block_index, position)

    for block_index, phis in sorted(cert.renamed_phis.items()):
        block = blocks.get(block_index)
        if block is None:
            raise SSAValidationError(
                f"phi block B{block_index} does not exist", ctx
            )
        preds = {pred.index for pred in block.preds}
        for phi in phis:
            record_def(phi.dest, block_index, _PHI_TOP)
            if set(phi.args) != preds:
                raise SSAValidationError(
                    f"phi for {phi.dest} in B{block_index} names "
                    f"predecessors {sorted(phi.args)} but the block has "
                    f"{sorted(preds)}",
                    _extend(ctx, block=block_index),
                )
    for position, instr in enumerate(renamed):
        for dst in instr.defs:
            if dst.is_virtual:
                record_def(dst, block_of[position], position)
    for value in cert.undef:
        if value in def_site:
            raise SSAValidationError(
                f"undef value {value} has a definition", ctx
            )

    by_origin: Dict[Reg, List[Reg]] = {}
    for value, origin in cert.origin.items():
        by_origin.setdefault(origin, []).append(value)

    def site_precedes(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        """Does definition site ``a`` dominate (strictly precede) ``b``?"""
        if a[0] == b[0]:
            return a[1] < b[1]
        return dom.dominates(a[0], b[0])

    def check_use(value: Reg, use_block: int, use_pos: int, what: str) -> None:
        """``value`` must be defined at the *nearest* dominating
        definition of its origin — dominance alone is not enough; a
        shadowed (stale) definition also dominates the use."""
        if value not in cert.origin:
            raise SSAValidationError(
                f"{what} reads unknown SSA value {value}", ctx
            )
        site = def_site.get(value)
        use_site = (use_block, use_pos)
        if site is None:
            if value not in cert.undef:
                raise SSAValidationError(
                    f"{what} reads {value}, which has no definition and "
                    "is not an undef value",
                    ctx,
                )
        elif not site_precedes(site, use_site):
            raise SSAValidationError(
                f"definition of {value} does not dominate {what}",
                _extend(ctx, value=str(value)),
            )
        for other in by_origin[cert.origin[value]]:
            if other == value:
                continue
            other_site = def_site.get(other)
            if other_site is None or not site_precedes(other_site, use_site):
                continue
            if site is None or site_precedes(site, other_site):
                raise SSAValidationError(
                    f"{what} reads {value} but the nearer definition of "
                    f"origin {cert.origin[value]} is {other} (stale "
                    "renaming)",
                    _extend(ctx, value=str(value), shadowing=str(other)),
                )

    for position, instr in enumerate(renamed):
        for src in instr.srcs:
            if src.is_virtual:
                check_use(
                    src, block_of[position], position, f"use at {position}"
                )
    for block_index, phis in sorted(cert.renamed_phis.items()):
        block = blocks[block_index]
        for phi in phis:
            for pred in block.preds:
                arg = phi.args[pred.index]
                if arg.is_virtual:
                    check_use(
                        arg,
                        pred.index,
                        pred.end,  # the argument is read at the edge
                        f"phi argument on B{pred.index}->B{block_index}",
                    )

    # --- semantics: feeding defs vs recomputed reaching definitions ----
    pre_cfg = CFG(pre)
    chains_cache: Dict[Reg, Any] = {}
    feed_cache: Dict[Reg, Set[Any]] = {}
    _ENTRY = object()  # feeding marker for undef values

    def feeding_defs(value: Reg) -> Set[Any]:
        """Positions of the instruction definitions transitively feeding
        ``value`` through phis (``_ENTRY`` for undef contributions)."""
        cached = feed_cache.get(value)
        if cached is not None:
            return cached
        out: Set[Any] = set()
        seen: Set[Reg] = set()
        stack = [value]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            site = def_site.get(v)
            if site is None:
                out.add(_ENTRY)
                continue
            block_index, position = site
            if position != _PHI_TOP:
                out.add(position)
                continue
            for phi in cert.renamed_phis[block_index]:
                if phi.dest == v:
                    stack.extend(phi.args.values())
                    break
        feed_cache[value] = out
        return out

    for position, instr in enumerate(renamed):
        original = pre[position]
        if len(original.srcs) != len(instr.srcs):
            raise SSAValidationError(
                f"operand count changed at position {position}", ctx
            )
        for slot, src in enumerate(instr.srcs):
            if not src.is_virtual:
                continue
            origin = cert.origin[src]
            if original.srcs[slot] != origin:
                raise SSAValidationError(
                    f"use at {position} renamed {original.srcs[slot]} to "
                    f"{src}, whose origin is {origin}",
                    _extend(ctx, position=position),
                )
            chains = chains_cache.get(origin)
            if chains is None:
                chains = chains_cache[origin] = chains_for(pre_cfg, origin)
            allowed = {id(site) for site in chains.defs_reaching(original)}
            for feed in feeding_defs(src):
                if feed is _ENTRY:
                    continue  # undef contribution: no pre-SSA def to match
                if id(pre[feed]) not in allowed:
                    raise SSAValidationError(
                        f"use of {origin} at {position} was renamed to "
                        f"{src}, fed by the definition at {feed}, which "
                        "does not reach the use (stale renaming)",
                        _extend(ctx, position=position, definition=feed),
                    )


# ---------------------------------------------------------------------------
# Out-of-SSA destruction validation
# ---------------------------------------------------------------------------


def validate_destruction(cert, virtual_code, context: StageContext) -> None:
    """Recheck out-of-SSA destruction by symbolic replay.

    ``cert.ssa_code``/``cert.phis`` are the post-spill snapshot that was
    destructed; ``virtual_code`` is the destructed (still virtual)
    result.  Raises :class:`DestructValidationError` on the first lost
    copy, clobbered live-through value, or structural mismatch.
    """
    from ..cfg.graph import CFG
    from ..ssa.liveness import ssa_liveness

    ctx = _extend(context, phase="ssa-destruct")
    if virtual_code is None:
        raise DestructValidationError(
            "allocator kept no virtual destruction snapshot", ctx
        )
    cfg_ssa = CFG(cert.ssa_code)
    cfg_out = CFG(virtual_code)
    if len(cfg_ssa.blocks) != len(cfg_out.blocks):
        raise DestructValidationError(
            f"destruction changed the block count "
            f"({len(cfg_ssa.blocks)} -> {len(cfg_out.blocks)})",
            ctx,
        )
    live = ssa_liveness(cert.ssa_code, cfg_ssa, cert.phis)
    assignment = cert.assignment

    def loc(value: Reg):
        return assignment.get(value, value)

    # Which predecessor blocks own a copy window, and for which phis.
    blocks_ssa = {block.index: block for block in cfg_ssa.blocks}
    edges: Dict[int, Tuple[int, List[Any]]] = {}
    for succ_index, phis in sorted(cert.phis.items()):
        if not phis:
            continue
        succ = blocks_ssa.get(succ_index)
        if succ is None:
            raise DestructValidationError(
                f"phi block B{succ_index} does not exist", ctx
            )
        for pred in succ.preds:
            if len(pred.succs) != 1:
                raise DestructValidationError(
                    f"critical edge B{pred.index}->B{succ_index} carries "
                    "a parallel copy",
                    ctx,
                )
            edges[pred.index] = (succ_index, phis)

    for block_ssa, block_out in zip(cfg_ssa.blocks, cfg_out.blocks):
        before = cert.ssa_code[block_ssa.start : block_ssa.end]
        after = virtual_code[block_out.start : block_out.end]
        term = 1 if before and before[-1].is_branch else 0
        term_out = 1 if after and after[-1].is_branch else 0
        ectx = _extend(ctx, block=block_ssa.index)
        if term != term_out or (term and str(before[-1]) != str(after[-1])):
            raise DestructValidationError(
                f"destruction altered the terminator of B{block_ssa.index}",
                ectx,
            )
        if len(after) < len(before):
            raise DestructValidationError(
                f"destruction dropped instructions from B{block_ssa.index}",
                ectx,
            )
        head = len(before) - term
        for index in range(head):
            if str(before[index]) != str(after[index]):
                raise DestructValidationError(
                    f"destruction altered a non-copy instruction in "
                    f"B{block_ssa.index}: {before[index]} -> {after[index]}",
                    ectx,
                )
        window = after[head : len(after) - term]
        edge = edges.get(block_ssa.index)
        if edge is None:
            if window:
                raise DestructValidationError(
                    f"copy window inserted at B{block_ssa.index}, which "
                    "feeds no phi",
                    ectx,
                )
            continue
        succ_index, phis = edge
        _replay_copy_window(
            cert,
            window,
            phis,
            block_ssa.index,
            succ_index,
            live,
            loc,
            _extend(ctx, edge=f"B{block_ssa.index}->B{succ_index}"),
        )


def _replay_copy_window(
    cert, window, phis, pred_index, succ_index, live, loc, ctx
) -> None:
    """Symbolically execute one edge's copy window at the location level
    and prove each phi received its argument's value while every
    live-through location kept its own."""
    env: Dict[Any, Tuple[str, Any]] = {}
    mem: Dict[str, Tuple[str, Any]] = {}

    def read(location) -> Tuple[str, Any]:
        return env.get(location, ("init", location))

    for instr in window:
        if instr.is_copy:
            env[loc(instr.dst)] = read(loc(instr.srcs[0]))
        elif instr.op is Op.STM:
            mem[instr.addr.name] = read(loc(instr.srcs[0]))
        elif instr.op is Op.LDM:
            if instr.addr.name not in mem:
                raise DestructValidationError(
                    f"copy window loads {instr.addr.name} before any "
                    "store to it",
                    ctx,
                )
            env[loc(instr.dst)] = mem[instr.addr.name]
        else:
            raise DestructValidationError(
                f"unexpected {instr.op.name} instruction in a copy window",
                ctx,
            )

    for phi in phis:
        arg = phi.args.get(pred_index)
        if arg is None:
            raise DestructValidationError(
                f"phi for {phi.dest} has no argument for B{pred_index}",
                ctx,
            )
        if arg in cert.undef:
            continue  # no copy owed: the destination stays uninitialized
        if read(loc(phi.dest)) != ("init", loc(arg)):
            raise DestructValidationError(
                f"phi destination {phi.dest} does not receive the value "
                f"of its argument {arg} (lost copy)",
                _extend(ctx, dest=str(phi.dest), arg=str(arg)),
            )

    dests = {phi.dest for phi in phis}
    live_through = live.block_live_in.get(succ_index, set()) - dests
    for value in sorted(live_through, key=lambda reg: reg.index):
        if read(loc(value)) != ("init", loc(value)):
            raise DestructValidationError(
                f"copy window clobbered {value}, which is live through "
                "the edge",
                _extend(ctx, value=str(value)),
            )


# ---------------------------------------------------------------------------
# Chordal-coloring validation
# ---------------------------------------------------------------------------


def validate_chordal(cert, virtual_code, context: StageContext) -> None:
    """Re-prove the zero-coloring-time-spill claim from the certificate.

    Rebuilds SSA liveness and interference from ``cert.ssa_code`` and
    ``cert.phis`` with rules written independently of the allocator,
    then checks the elimination order, the clique bound, the coloring,
    and the spill-slot ledger.  Raises :class:`ChordalValidationError`
    on the first violation.
    """
    from ..cfg.graph import CFG
    from ..ssa.liveness import ssa_liveness

    ctx = _extend(context, phase="chordal")
    k = cert.k
    cfg = CFG(cert.ssa_code)
    live = ssa_liveness(cert.ssa_code, cfg, cert.phis)
    if live.maxlive > k:
        raise ChordalValidationError(
            f"MAXLIVE {live.maxlive} exceeds k={k} after the spill phase",
            _extend(ctx, maxlive=live.maxlive),
        )
    if live.maxlive != cert.maxlive:
        raise ChordalValidationError(
            f"certificate claims MAXLIVE {cert.maxlive} but the rebuilt "
            f"liveness finds {live.maxlive}",
            _extend(ctx, maxlive=live.maxlive),
        )

    universe: Set[Reg] = set()
    for instr in cert.ssa_code:
        for reg in instr.regs():
            if reg.is_virtual:
                universe.add(reg)
    for phis in cert.phis.values():
        for phi in phis:
            universe.add(phi.dest)
            universe.update(phi.args.values())

    adjacency = _rebuild_ssa_interference(cert, cfg, live, universe)

    order = cert.order
    if len(order) != len(set(order)):
        raise ChordalValidationError(
            "elimination order contains duplicates", ctx
        )
    if set(order) != universe:
        missing = sorted(universe - set(order), key=lambda r: r.index)
        extra = sorted(set(order) - universe, key=lambda r: r.index)
        raise ChordalValidationError(
            f"elimination order disagrees with the value universe "
            f"(missing {missing}, extra {extra})",
            ctx,
        )

    position = {value: index for index, value in enumerate(order)}
    for index, value in enumerate(order):
        earlier = [u for u in adjacency[value] if position[u] < index]
        if len(earlier) >= k:
            raise ChordalValidationError(
                f"{value} has {len(earlier)} earlier neighbors with k={k} "
                "— a coloring-time spill would have been required",
                _extend(ctx, value=str(value)),
            )
        earlier.sort(key=lambda reg: reg.index)
        for i, a in enumerate(earlier):
            for b in earlier[i + 1 :]:
                if b not in adjacency[a]:
                    raise ChordalValidationError(
                        f"elimination order is not perfect: earlier "
                        f"neighbors {a} and {b} of {value} do not "
                        "interfere",
                        _extend(ctx, value=str(value)),
                    )

    for value in sorted(universe, key=lambda reg: reg.index):
        color = cert.assignment.get(value)
        if color is None:
            raise ChordalValidationError(
                f"{value} is missing from the assignment", ctx
            )
        if not 0 <= color < k:
            raise ChordalValidationError(
                f"{value} assigned color {color} outside [0, {k})", ctx
            )
        for neighbor in adjacency[value]:
            if cert.assignment.get(neighbor) == color:
                raise ChordalValidationError(
                    f"interfering values {value} and {neighbor} share "
                    f"color {color}",
                    _extend(ctx, value=str(value), neighbor=str(neighbor)),
                )

    # Spill-slot ledger: every slot the destructed code touches must be
    # either pre-existing traffic (params, spill-phase stores/loads —
    # all present in the certified post-spill code) or a certified
    # cycle-breaking shuffle slot.  Anything else is a coloring-time or
    # destruction-time spill the phases claim cannot happen.
    certified = {
        instr.addr.name
        for instr in cert.ssa_code
        if instr.addr is not None and instr.addr.space == "spill"
    }
    stray = set(cert.spill_slots) - certified
    if stray:
        raise ChordalValidationError(
            f"certified spill slots never touched by the post-spill "
            f"code: {sorted(stray)}",
            ctx,
        )
    allowed = certified | set(cert.shuffle_slots)
    for index, instr in enumerate(virtual_code):
        if (
            instr.addr is not None
            and instr.addr.space == "spill"
            and instr.addr.name not in allowed
        ):
            raise ChordalValidationError(
                f"spill slot {instr.addr.name} introduced after the "
                "spill phase",
                _extend(ctx, position=index),
            )


def _rebuild_ssa_interference(
    cert, cfg, live, universe: Set[Reg]
) -> Dict[Reg, Set[Reg]]:
    """Independent reconstruction of the SSA interference relation: a
    definition interferes with everything live just after it, a block's
    phi destinations form a clique with the block's live-in values, and
    entry-live (undef) values interfere pairwise."""
    adjacency: Dict[Reg, Set[Reg]] = {value: set() for value in universe}

    def connect(a: Reg, b: Reg) -> None:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)

    phi_dests: Dict[int, Set[Reg]] = {
        block_index: {phi.dest for phi in phis}
        for block_index, phis in cert.phis.items()
    }
    for block in cfg.blocks:
        current: Set[Reg] = set(live.block_live_out[block.index])
        for index in range(block.end - 1, block.start - 1, -1):
            instr = cert.ssa_code[index]
            defs = [reg for reg in instr.defs if reg.is_virtual]
            for dst in defs:
                for other in current:
                    connect(dst, other)
            current -= set(defs)
            current |= {reg for reg in instr.srcs if reg.is_virtual}
        dests = phi_dests.get(block.index, set())
        top = current | dests
        for dst in dests:
            for other in top:
                connect(dst, other)

    entry_live = sorted(
        live.block_live_in.get(cfg.entry_block().index, set()),
        key=lambda reg: reg.index,
    )
    for i, a in enumerate(entry_live):
        for b in entry_live[i + 1 :]:
            connect(a, b)
    return adjacency
