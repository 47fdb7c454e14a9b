"""The transformation validators: each phase probe is caught by *its*
validator as a structured error before execution on the default
pipeline, and patching that validator to a no-op lets the same probe
reach execution as a miscompile.

The witness programs are fuzzer-found (``repro.testing.generator``) and
delta-minimized with ``minimize_source`` under the predicate "the armed
probe miscompiles with the validator off AND is caught at the expected
stage with it on" — so each one is guaranteed to exercise both sides.
"""

from functools import partialmethod

import pytest

from repro.bench.harness import Harness
from repro.bench.parallel import CellSpec, run_cells
from repro.ir.iloc import Instr, Op, Symbol, ldm, preg
from repro.resilience import faults
from repro.resilience.errors import (
    ChordalValidationError,
    DestructValidationError,
    MotionValidationError,
    PeepholeValidationError,
    ScheduleValidationError,
    SSAValidationError,
    StageContext,
    StageError,
)
from repro.resilience.faults import FaultSpec
from repro.resilience.pipeline import PassPipeline
from repro.resilience.triage import probe_failure
from repro.resilience.validators import validate_peephole, validate_schedule

#: A loop that writes a spilled variable (``p2``) which is printed after
#: the loop: RAP at k=4 hoists the slot with a trailing store, so dropping
#: that store (or preloading the wrong register) changes the output.
SPILLED_LOOP_WITNESS = """
int f1(float p2, int p3, int p4) {
    int i5;
    for (i5 = 0; i5 < 5; i5 = i5 + 1) {
        p2 = p4;
    }
    if ((p3 < p4) || ((-p3) < p2)) {
        int i6;
        for (i6 = 0; i6 < 1; i6 = i6 + 1) {
        }
    }
    print(p2);
    print(p3);
    return (-2 + p4);
}
void main() {
    if (-3 < 2) {
    }
    print(f1((0.6 - ((3.6 * -8.2) - (5.4 - 4.0))), 1, (((-1) * 7) + 1)));
}
"""

#: A global read twice in one printed expression: at k=3 the two reads
#: share spill traffic inside one block, so a stale holder entry rewrites
#: a live load, and an adjacent-dependent swap reorders the uses.
GLOBAL_EXPR_WITNESS = """
float ga1[8];
int g2 = 9;
float f3(int p4, float p5) {
}
void main() {
    print(((g2 % 7) + (-(g2 - -3))));
}
"""

#: Register pressure with a redefinition (``a``): SSA renaming maintains
#: a two-deep stack for ``a``'s origin, so the stale-def probe has a
#: shadowed definition to resolve to, and MAXLIVE > 3 makes the chordal
#: coloring non-trivial for the clash probe.
REDEF_PRESSURE_WITNESS = """
int f(int a, int b, int c, int d) {
    int e; int g; int h;
    e = a * b; g = c * d; h = a * d;
    a = e + g;
    return e + g + h + a + b + c + d;
}
void main() { print(f(2, 3, 5, 7)); }
"""

#: The textbook swap loop: the loop header's phis permute ``a`` and
#: ``b``, so out-of-SSA destruction must break a parallel-copy cycle on
#: the back edge — exactly the move the lost-copy probe corrupts.  k=4
#: keeps both values in registers so the cycle survives to the
#: location level.
SWAP_LOOP_WITNESS = """
void main() {
    int a; int b; int t; int i;
    a = 1; b = 100;
    for (i = 0; i < 6; i = i + 1) {
        t = a; a = b; b = t;
        print(a + 2 * b);
    }
    print(a); print(b);
}
"""

#: The validators a test patches to a no-op, by the names the pipeline
#: looks them up under at call time.
SSA_CONSTRUCTION = "repro.resilience.validators.validate_ssa_construction"
DESTRUCTION = "repro.resilience.validators.validate_destruction"
CHORDAL = "repro.resilience.validators.validate_chordal"
ASSIGNMENT = "repro.resilience.pipeline.check_assignment"
MOTION = "repro.resilience.validators.validate_motion"
PEEPHOLE = "repro.resilience.validators.validate_peephole"
SCHEDULE = "repro.resilience.validators.validate_schedule"

#: probe -> (source, allocator, k, error class, the checks that must be
#: off for the probe to reach execution, schedule stage on?).  The
#: generic assignment recheck runs after the ssaspill validators and
#: also sees a corrupted copy window or coloring, so the destruct and
#: chordal probes need it off too to miscompile.
SCENARIOS = {
    "ssa.rename.stale-def": (
        REDEF_PRESSURE_WITNESS, "ssaspill", 3, SSAValidationError,
        (SSA_CONSTRUCTION,), False,
    ),
    "ssa.destruct.lost-copy": (
        SWAP_LOOP_WITNESS, "ssaspill", 4, DestructValidationError,
        (DESTRUCTION, ASSIGNMENT), False,
    ),
    "ssaspill.color.clash": (
        REDEF_PRESSURE_WITNESS, "ssaspill", 3, ChordalValidationError,
        (CHORDAL, ASSIGNMENT), False,
    ),
    "rap.motion.drop-store": (
        SPILLED_LOOP_WITNESS, "rap", 4, MotionValidationError,
        (MOTION,), False,
    ),
    "rap.motion.wrong-reg": (
        SPILLED_LOOP_WITNESS, "rap", 4, MotionValidationError,
        (MOTION,), False,
    ),
    "rap.peephole.stale-holder": (
        GLOBAL_EXPR_WITNESS, "rap", 3, PeepholeValidationError,
        (PEEPHOLE,), False,
    ),
    "sched.reorder-dependent": (
        GLOBAL_EXPR_WITNESS, "gra", 3, ScheduleValidationError,
        (SCHEDULE,), True,
    ),
}


def allocate_module(source, allocator, k, schedule=False):
    pipe = PassPipeline()
    prog = pipe.compile(source)
    module = prog.fresh_module()
    for func in module.functions.values():
        pipe.allocate(func, allocator, k, schedule=schedule)


def probe(monkeypatch, point, checks_off=()):
    """``probe_failure`` on the scenario of ``point`` with its probe
    armed and ``checks_off`` patched to no-ops."""
    source, allocator, k, _cls, _off, schedule = SCENARIOS[point]
    for name in checks_off:
        monkeypatch.setattr(name, lambda *args, **kwargs: None)
    if schedule:
        # probe_failure allocates without the schedule stage; turn it on
        # for this probe's allocations.
        monkeypatch.setattr(
            PassPipeline,
            "allocate_program",
            partialmethod(PassPipeline.allocate_program, schedule=True),
        )
    return probe_failure(
        source, allocator, k, inject=[FaultSpec(point, times=None)]
    )


class TestProbeCaughtByItsValidator:
    """With validators on, every phase probe surfaces as that phase's
    error class — at the validate/schedule stage, never at execution."""

    @pytest.mark.parametrize("point", sorted(SCENARIOS))
    def test_caught_with_structured_context(self, point):
        source, allocator, k, err_cls, _off, schedule = SCENARIOS[point]
        with faults.injected(FaultSpec(point, times=None)) as plan:
            with pytest.raises(err_cls) as info:
                allocate_module(source, allocator, k, schedule=schedule)
            assert plan.fired, f"probe {point} never fired"
        error = info.value
        assert error.stage in ("validate", "schedule")
        assert error.context.allocator == allocator
        assert error.context.k == k
        assert error.context.function is not None

    @pytest.mark.parametrize("point", sorted(SCENARIOS))
    def test_probe_failure_reports_pre_execution_stage(self, point, monkeypatch):
        failure = probe(monkeypatch, point)
        assert failure is not None
        assert failure.kind == "crash"
        assert failure.stage in ("validate", "schedule")


class TestValidatorOffReproducesMiscompile:
    """The same probes, with only the matching validator patched to a
    no-op, sail through the pipeline and diverge at output comparison —
    proof the validators are load-bearing, not redundant with existing
    checks."""

    @pytest.mark.parametrize("point", sorted(SCENARIOS))
    def test_miscompile_without_validator(self, point, monkeypatch):
        failure = probe(monkeypatch, point, SCENARIOS[point][4])
        assert failure is not None
        assert failure.kind == "miscompile"
        assert failure.expected != failure.actual


class TestScheduleValidatorUnits:
    """Hand-built blocks: the schedule validator re-derives dependence
    pairs from instruction structure, independent of the scheduler."""

    def ctx(self):
        return StageContext(stage="schedule", function="unit")

    def block(self):
        r0, r1, r2 = preg(0), preg(1), preg(2)
        return [
            Instr(Op.LOADI, dst=r0, imm=2),
            Instr(Op.LOADI, dst=r1, imm=3),
            Instr(Op.ADD, srcs=[r0, r1], dst=r2),
            Instr(Op.PRINT, srcs=[r2]),
        ]

    def test_identity_order_accepted(self):
        code = self.block()
        validate_schedule(code, list(code), self.ctx())

    def test_independent_swap_accepted(self):
        code = self.block()
        # The two loads are independent; swapping them is a legal order.
        validate_schedule(code, [code[1], code[0], code[2], code[3]], self.ctx())

    def test_dependent_swap_rejected(self):
        code = self.block()
        # print uses r2 before the add defines it.
        bad = [code[0], code[1], code[3], code[2]]
        with pytest.raises(ScheduleValidationError):
            validate_schedule(code, bad, self.ctx())

    def test_dropped_instruction_rejected(self):
        code = self.block()
        with pytest.raises(ScheduleValidationError):
            validate_schedule(code, code[:-1], self.ctx())


class TestPeepholeValidatorUnits:
    """Hand-built windows: symbolic execution accepts exactly the sound
    Figure-6 rewrites."""

    def ctx(self):
        return StageContext(stage="validate", function="unit")

    def test_redundant_reload_deletion_accepted(self):
        slot = Symbol("a")
        r0, r1 = preg(0), preg(1)
        before = [
            ldm(slot, r0),
            Instr(Op.ADD, srcs=[r0, r0], dst=r1),
            ldm(slot, r0),  # r0 still mirrors the slot: redundant
        ]
        after = [before[0].clone(), before[1].clone()]
        validate_peephole(before, after, self.ctx())

    def test_live_reload_deletion_rejected(self):
        slot = Symbol("a")
        r0 = preg(0)
        before = [
            ldm(slot, r0),
            Instr(Op.ADD, srcs=[r0, r0], dst=r0),  # r0 redefined
            ldm(slot, r0),  # reload is load-bearing
        ]
        after = [before[0].clone(), before[1].clone()]
        with pytest.raises(PeepholeValidationError):
            validate_peephole(before, after, self.ctx())

    def test_observable_trace_change_rejected(self):
        r0 = preg(0)
        before = [Instr(Op.LOADI, dst=r0, imm=1), Instr(Op.PRINT, srcs=[r0])]
        after = [Instr(Op.LOADI, dst=r0, imm=1)]
        with pytest.raises(PeepholeValidationError):
            validate_peephole(before, after, self.ctx())


class TestFreezeThaw:
    """The validator error classes survive the worker-pool freeze/thaw
    transport as their own types, with context and cause intact."""

    CASES = [
        (MotionValidationError, "motion-validation"),
        (ScheduleValidationError, "schedule-validation"),
        (PeepholeValidationError, "peephole-validation"),
    ]

    @pytest.mark.parametrize("cls,kind", CASES, ids=lambda v: str(v))
    def test_roundtrip(self, cls, kind):
        if isinstance(cls, str):
            pytest.skip("id half of the pair")
        context = StageContext(
            stage="validate", function="f", allocator="rap", k=3,
            extra={"loop": "R7", "slot": "[f.%v1]"},
        )
        error = cls("unsound hoist", context, cause=ValueError("root"))
        payload = error.freeze()
        assert payload["kind"] == kind
        thawed = StageError.thaw(payload)
        assert type(thawed) is cls
        assert thawed.message == "unsound hoist"
        assert thawed.context.as_dict() == context.as_dict()
        assert "ValueError: root" in str(thawed.cause)


class TestPoolRoundTrip:
    """A validator failure raised inside a ``--jobs`` worker reaches the
    parent as the same exception class it would be serially."""

    POOL_CASES = [
        ("rap.motion.wrong-reg", "rap", 4, MotionValidationError, ()),
        ("rap.peephole.stale-holder", "rap", 3, PeepholeValidationError, ()),
        (
            "sched.reorder-dependent", "gra", 3, ScheduleValidationError,
            (("schedule", True),),
        ),
    ]

    @pytest.mark.parametrize("case", POOL_CASES, ids=lambda c: c[0])
    def test_error_class_survives_pool(self, case):
        point, allocator, k, err_cls, alloc_kwargs = case
        harness = Harness(fallback=False)
        specs = [CellSpec("sieve", allocator, k, alloc_kwargs=alloc_kwargs)]
        with faults.injected(FaultSpec(point, times=None)):
            with pytest.raises(err_cls) as info:
                run_cells(specs, jobs=2, harness=harness)
        assert info.value.stage in ("validate", "schedule")
