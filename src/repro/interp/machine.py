"""The iloc interpreter.

"An iloc interpreter is used to count the number of cycles required to
execute the code.  For this study, we assume that each instruction takes
one cycle to execute." (§4)

This machine executes linear iloc (allocated or not — it is agnostic to
whether operands are virtual or physical registers, which is what lets the
test suite compare allocated runs against the infinite-register reference
run).  Every activation gets a fresh register file and spill-slot frame,
so register allocation is strictly per-procedure.

Counted events: every non-label instruction is one cycle; ``load``/``ldm``
increment the load counter, ``store``/``stm`` the store counter, and
``i2i`` the copy counter — globally and attributed to the routine whose
body is executing (the paper's Table 1 reports routines individually).

Two tiers dispatch the same images with identical observable results.
The ``slow`` loop (:meth:`Machine._dispatch`) walks ``Instr`` objects one
at a time and is the only one that feeds a :class:`Tracer` or an armed
fault plan.  The default ``compiled`` tier (:mod:`repro.interp.pycompile`)
runs the program as generated Python: each :class:`ProgramImage` keeps
its functions' translations, and a run binds them into one namespace in
which a guest call is a direct Python call.  It hands over to the slow
loop in two cases: a function it cannot translate runs there (every
activation of it, called like any other function), and an activation
about to exceed the cycle budget bails there mid-function.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.iloc import Instr, Op, Reg
from ..pdg.graph import GlobalVar
from .memory import MachineFault, Memory
from .stats import Counters, ExecStats

Number = Union[int, float]

#: The two interpreter tiers, slowest first.  ``REPRO_INTERP`` selects
#: one globally (read at machine construction, so tests can monkeypatch
#: it): ``slow`` forces the original instruction-by-instruction dispatch
#: everywhere (used to prove tier equivalence end to end), and
#: ``compiled`` — the default — the pycompile tier (decoded images
#: translated to specialized Python), which falls back to the slow loop
#: for any image it cannot translate.
INTERP_TIERS = ("slow", "compiled")
DEFAULT_TIER = "compiled"

#: The default cycle budget: a run that executes more instructions than
#: this faults instead of looping forever.
MAX_CYCLES = 50_000_000


def _env_tier() -> Optional[str]:
    value = os.environ.get("REPRO_INTERP", "").strip().lower()
    return value if value in INTERP_TIERS else None


class _Bailout(Exception):
    """Private transport for a fault raised after a compiled-tier bail.

    When compiled code bails to the slow loop (cycle budget about to
    trip), the bail flushes the pending counters and the slow loop
    annotates the fault itself; the generated fault handler of the
    bailing frame must *not* flush again.  Wrapping the fault in an
    exception type that handler does not catch makes the pass-through
    structural; the bailing frame's generated code unwraps it on its way
    out, so its callers' handlers flush their own counters as usual.
    """

    def __init__(self, fault: MachineFault):
        super().__init__(fault.message)
        self.fault = fault

_faults_module = None


def _faults_active():
    """Late-bound ``repro.resilience.faults.active()``.

    The resilience package imports this module (via the pipeline), so the
    dependency must be resolved lazily to avoid an import cycle.
    """
    global _faults_module
    if _faults_module is None:
        from ..resilience import faults

        _faults_module = faults
    return _faults_module.active()


@dataclass
class FunctionImage:
    """Executable form of one function.

    ``param_slots`` are the spill-space slot names into which the machine
    writes incoming arguments (the function's prologue loads them from
    there — the "arguments arrive in memory" C convention).
    """

    name: str
    code: Sequence[Instr]
    param_slots: List[str]
    labels: Dict[str, int] = field(default_factory=dict)
    #: lazily decoded form, the compiled tier's input (None = not decoded
    #: yet, False = decode failed and the slow path is authoritative for
    #: this image).
    _decoded: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            for index, instr in enumerate(self.code):
                if instr.op is Op.LABEL:
                    self.labels[instr.label] = index

    def decoded_or_none(self):
        """The cached :class:`~repro.interp.decode.DecodedFunction`.

        Decoding happens once per image and is shared by every machine
        (the code is frozen once an image exists).  Returns None when the
        image cannot be decoded — the slow path then reproduces whatever
        behaviour (including crashes) the original code has, at original
        timing.  The decoded ``regs`` and ``pc_map`` also let a compiled
        activation hand its state back to the slow loop.
        """
        if self._decoded is None:
            try:
                from .decode import decode_image

                self._decoded = decode_image(self)
            except Exception:
                self._decoded = False
        return self._decoded or None


@dataclass
class ProgramImage:
    """A linked program: global layout plus one image per function."""

    globals: List[GlobalVar]
    functions: Dict[str, FunctionImage]
    #: the compiled tier's translations, by function name, made on the
    #: function's first compiled activation (None = the translator
    #: rejected it and the slow loop runs it).  A translation depends on
    #: the callees' arities, so it belongs to the program, and it is
    #: freed with it.
    _translations: Dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def image(self, name: str) -> FunctionImage:
        if name not in self.functions:
            raise MachineFault(f"call to unknown function {name!r}")
        return self.functions[name]


class _Frame:
    __slots__ = ("regs", "slots", "stack_mark")

    def __init__(self, stack_mark: int):
        #: keyed by Reg, read by the slow loop only: compiled code keeps
        #: registers in Python locals and writes them here when it bails.
        self.regs: Dict[Reg, Number] = {}
        self.slots: Dict[str, Number] = {}
        self.stack_mark = stack_mark


class Tracer:
    """Records executed instructions (a debugging aid for allocator work).

    Pass one to :class:`Machine`; every executed instruction (labels
    excluded) is appended as ``(function, pc, text)``, up to ``limit``
    entries (older entries are dropped, keeping the tail — usually the
    interesting part when chasing a divergence).
    """

    def __init__(self, limit: int = 10_000):
        self.limit = limit
        self.events: List[Tuple[str, int, str]] = []

    def record(self, func_name: str, pc: int, instr: "Instr") -> None:
        self.events.append((func_name, pc, str(instr)))
        if len(self.events) > self.limit:
            del self.events[: len(self.events) - self.limit]

    def tail(self, count: int = 20) -> List[str]:
        return [
            f"{name}@{pc}: {text}" for name, pc, text in self.events[-count:]
        ]


class Machine:
    """Executes a :class:`ProgramImage`."""

    def __init__(
        self,
        program: ProgramImage,
        max_cycles: int = MAX_CYCLES,
        tracer: Optional[Tracer] = None,
        tier: Optional[str] = None,
    ):
        self.program = program
        self.max_cycles = max_cycles
        self.memory = Memory(program.globals)
        self.stats = ExecStats()
        self.tracer = tracer
        #: requested interpreter tier.  Resolution order: the explicit
        #: ``tier`` argument, then ``REPRO_INTERP``, then the default.
        #: A tracer or an armed fault plan still demotes execution to
        #: the slow path at dispatch time (see :meth:`interp_tier`).
        if tier is not None:
            if tier not in INTERP_TIERS:
                raise ValueError(
                    f"unknown interpreter tier {tier!r}; "
                    f"expected one of {INTERP_TIERS}"
                )
            self.tier = tier
        else:
            self.tier = _env_tier() or DEFAULT_TIER
        #: seconds spent decoding images on behalf of this machine (zero
        #: when every image was already decoded by an earlier run).
        self.decode_seconds = 0.0
        #: seconds spent translating functions to Python on behalf of
        #: this machine (zero unless this machine made a translation).
        self.pycompile_seconds = 0.0
        #: the running compiled run's namespace
        #: (:func:`repro.interp.pycompile.run_namespace`), else None.
        self._namespace: Optional[dict] = None
        self._arg_queue: List[Number] = []
        #: pc of the slow loop's current instruction, in original-code
        #: coordinates (the compiled tier annotates its own faults).
        self._fault_pc = 0

    # -- public API -------------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence[Number] = ()) -> Number:
        """Execute ``entry`` and return its return value (0 if void).

        The tier is resolved per run: fault plans arm and disarm between
        runs, never mid-run."""
        self.stats.interp_tier = self.interp_tier()
        if self.stats.interp_tier != "compiled":
            return self._call(entry, list(args))
        from .pycompile import run_namespace

        self._namespace = run_namespace(self)
        try:
            return self._call(entry, list(args))
        finally:
            # Drops the run's bound functions and state; the namespace
            # and its functions refer to each other.
            self._namespace.clear()
            self._namespace = None

    def interp_tier(self) -> str:
        """The tier dispatch will actually use for this machine.

        A tracer or an armed fault plan demotes the compiled tier to
        ``slow``: both observation mechanisms are wired into the slow
        dispatch loop only."""
        if self.tracer is not None or _faults_active() is not None:
            return "slow"
        return self.tier

    def _decoded_for(self, image: FunctionImage):
        decoded = image._decoded
        if decoded is None:
            started = time.perf_counter()
            decoded = image.decoded_or_none()
            self.decode_seconds += time.perf_counter() - started
            return decoded
        return decoded or None

    # -- execution ---------------------------------------------------------------

    def _call(self, name: str, args: List[Number]) -> Number:
        image = self.program.image(name)
        if len(args) != len(image.param_slots):
            raise MachineFault(
                f"{name} expects {len(image.param_slots)} args, got {len(args)}"
            )
        if self._namespace is not None:
            from .pycompile import function_global

            return self._namespace[function_global(name)](*args)
        return self._call_slow(image, *args)

    def _call_slow(self, image: FunctionImage, *args: Number) -> Number:
        """One activation of ``image`` on the slow loop.  The compiled
        tier binds a function it cannot translate to this."""
        frame = _Frame(self.memory.stack_top)
        for slot, value in zip(image.param_slots, args):
            frame.slots[slot] = value
        try:
            return self._run_slow(image, frame)
        finally:
            self.memory.release_to(frame.stack_mark)

    def _run_slow(self, image: FunctionImage, frame: _Frame, pc: int = 0) -> Number:
        """Dispatch ``image`` on the slow loop from original-code ``pc``,
        annotating any fault with this activation's coordinates.

        ``pc`` is nonzero only when compiled code bails mid-activation
        (see :func:`repro.interp.pycompile._bail`)."""
        total = self.stats.total
        counters = self.stats.function(image.name)
        try:
            return self._dispatch(image, frame, image.code, counters, total, pc)
        except MachineFault as fault:
            # Innermost frame wins: annotate() never overwrites fields a
            # callee's dispatch already filled in.
            raise fault.annotate(
                function=image.name, pc=self._fault_pc, cycles=total.cycles
            )

    def _dispatch(
        self,
        image: FunctionImage,
        frame: _Frame,
        code: Sequence[Instr],
        counters: Counters,
        total: Counters,
        pc: int = 0,
    ) -> Number:
        n = len(code)
        self._fault_pc = pc

        def get(reg: Reg) -> Number:
            try:
                return frame.regs[reg]
            except KeyError:
                raise MachineFault(
                    f"read of uninitialized register {reg} in {image.name}"
                ) from None

        while pc < n:
            self._fault_pc = pc
            instr = code[pc]
            op = instr.op
            if op is Op.LABEL:
                pc += 1
                continue

            total.cycles += 1
            counters.cycles += 1
            if total.cycles > self.max_cycles:
                raise MachineFault(f"cycle budget exceeded in {image.name}")
            if self.tracer is not None:
                self.tracer.record(image.name, pc, instr)

            if op is Op.LOADI:
                frame.regs[instr.dst] = instr.imm
            elif op is Op.ADD:
                frame.regs[instr.dst] = get(instr.srcs[0]) + get(instr.srcs[1])
            elif op is Op.SUB:
                frame.regs[instr.dst] = get(instr.srcs[0]) - get(instr.srcs[1])
            elif op is Op.MUL:
                frame.regs[instr.dst] = get(instr.srcs[0]) * get(instr.srcs[1])
            elif op is Op.DIV:
                frame.regs[instr.dst] = _div(get(instr.srcs[0]), get(instr.srcs[1]))
            elif op is Op.MOD:
                frame.regs[instr.dst] = _mod(get(instr.srcs[0]), get(instr.srcs[1]))
            elif op is Op.NEG:
                frame.regs[instr.dst] = -get(instr.srcs[0])
            elif op is Op.CMP_LT:
                frame.regs[instr.dst] = int(get(instr.srcs[0]) < get(instr.srcs[1]))
            elif op is Op.CMP_LE:
                frame.regs[instr.dst] = int(get(instr.srcs[0]) <= get(instr.srcs[1]))
            elif op is Op.CMP_GT:
                frame.regs[instr.dst] = int(get(instr.srcs[0]) > get(instr.srcs[1]))
            elif op is Op.CMP_GE:
                frame.regs[instr.dst] = int(get(instr.srcs[0]) >= get(instr.srcs[1]))
            elif op is Op.CMP_EQ:
                frame.regs[instr.dst] = int(get(instr.srcs[0]) == get(instr.srcs[1]))
            elif op is Op.CMP_NE:
                frame.regs[instr.dst] = int(get(instr.srcs[0]) != get(instr.srcs[1]))
            elif op is Op.AND:
                frame.regs[instr.dst] = int(
                    bool(get(instr.srcs[0])) and bool(get(instr.srcs[1]))
                )
            elif op is Op.OR:
                frame.regs[instr.dst] = int(
                    bool(get(instr.srcs[0])) or bool(get(instr.srcs[1]))
                )
            elif op is Op.NOT:
                frame.regs[instr.dst] = int(not get(instr.srcs[0]))
            elif op is Op.I2I:
                total.copies += 1
                counters.copies += 1
                frame.regs[instr.dst] = get(instr.srcs[0])
            elif op is Op.LOAD:
                total.loads += 1
                counters.loads += 1
                frame.regs[instr.dst] = self.memory.load(get(instr.srcs[0]))
            elif op is Op.STORE:
                total.stores += 1
                counters.stores += 1
                self.memory.store(get(instr.srcs[1]), get(instr.srcs[0]))
            elif op is Op.LDM:
                total.loads += 1
                counters.loads += 1
                if instr.addr.space == "spill":
                    frame.regs[instr.dst] = frame.slots.get(instr.addr.name, 0)
                else:
                    frame.regs[instr.dst] = self.memory.load_scalar(instr.addr.name)
            elif op is Op.STM:
                total.stores += 1
                counters.stores += 1
                if instr.addr.space == "spill":
                    frame.slots[instr.addr.name] = get(instr.srcs[0])
                else:
                    self.memory.store_scalar(instr.addr.name, get(instr.srcs[0]))
            elif op is Op.LOADA:
                try:
                    frame.regs[instr.dst] = self.memory.array_base[instr.addr.name]
                except KeyError:
                    raise MachineFault(
                        f"unknown global array {instr.addr.name!r}"
                    ) from None
            elif op is Op.ALLOCA:
                frame.regs[instr.dst] = self.memory.alloca(int(instr.imm))
            elif op is Op.CBR:
                pc = image.labels[
                    instr.label if get(instr.srcs[0]) else instr.label_false
                ]
                continue
            elif op is Op.JMP:
                pc = image.labels[instr.label]
                continue
            elif op is Op.PARAM:
                self._arg_queue.append(get(instr.srcs[0]))
            elif op is Op.CALL:
                arity = len(self.program.image(instr.callee).param_slots)
                if len(self._arg_queue) < arity:
                    raise MachineFault(
                        f"call to {instr.callee} with too few queued params"
                    )
                args = self._arg_queue[len(self._arg_queue) - arity:]
                del self._arg_queue[len(self._arg_queue) - arity:]
                result = self._call(instr.callee, args)
                if instr.dst is not None:
                    frame.regs[instr.dst] = result
            elif op is Op.RET:
                return get(instr.srcs[0]) if instr.srcs else 0
            elif op is Op.PRINT:
                self.stats.output.append(get(instr.srcs[0]))
            elif op is Op.NOP:
                pass
            else:  # pragma: no cover
                raise MachineFault(f"cannot execute {instr}")
            pc += 1
        return 0


def _div(a: Number, b: Number) -> Number:
    if b == 0:
        raise MachineFault("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


def _mod(a: Number, b: Number) -> Number:
    if b == 0:
        raise MachineFault("modulo by zero")
    return a - b * _div(a, b)


def run_program(
    program: ProgramImage,
    entry: str = "main",
    args: Sequence[Number] = (),
    max_cycles: int = MAX_CYCLES,
) -> ExecStats:
    """Convenience wrapper: execute and return the statistics."""
    machine = Machine(program, max_cycles=max_cycles)
    machine.run(entry, args)
    return machine.stats
