"""Each fault-injection probe is caught by validation (or, for the raise
probe, surfaces as an allocate-stage error), and the harness fallback
chain contains every one of them."""

import pytest

from repro.bench.harness import Harness
from repro.bench.suite import program
from repro.compiler import param_slots
from repro.interp.machine import FunctionImage, ProgramImage
from repro.resilience import faults
from repro.resilience.errors import StageError
from repro.resilience.faults import FaultInjected, FaultPlan, FaultSpec
from repro.resilience.pipeline import PassPipeline

BENCH = program("sieve")

#: probe point -> (allocator, k, stage expected to catch the corruption,
#: FaultSpec kwargs).  The k values are chosen so each probe actually
#: corrupts something on this benchmark (e.g. at k=3 the dropped GRA edge
#: happens not to change the coloring; the motion probe needs the k=4
#: hoist).  The stale-holder probe uses ``times=None`` because a single
#: skipped kill is only harmful when a later load of the same address
#: shares the window.
SCENARIOS = {
    "gra.interference.drop-edge": ("gra", 5, "validate", {}),
    "gra.spill.corrupt-slot": ("gra", 3, "validate", {}),
    "rap.region.drop-edge": ("rap", 3, "validate", {}),
    "rap.spill.corrupt-slot": ("rap", 3, "validate", {}),
    "rap.region.raise": ("rap", 3, "allocate", {}),
    "rap.motion.wrong-reg": ("rap", 4, "validate", {}),
    "rap.peephole.stale-holder": ("rap", 3, "validate", {"times": None}),
}


def allocate_all(allocator, k, schedule=False):
    pipe = PassPipeline()
    prog = pipe.compile(BENCH.source())
    module = prog.fresh_module()
    functions = {}
    for name, func in module.functions.items():
        result = pipe.allocate(func, allocator, k, schedule=schedule)
        functions[name] = FunctionImage(name, result.code, param_slots(func))
    return ProgramImage(list(module.globals.values()), functions)


class TestProbeMechanics:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("gra.bogus")

    def test_probes_dormant_by_default(self):
        assert faults.active() is None
        allocate_all("gra", 3)  # no plan: identical to an uninstrumented run

    def test_times_and_skip(self):
        plan = FaultPlan([FaultSpec("rap.region.raise", times=2, skip=1)])
        fired = [plan.should_fire("rap.region.raise", "f") for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_function_pattern(self):
        plan = FaultPlan([FaultSpec("rap.region.raise", function="dg*")])
        assert not plan.should_fire("rap.region.raise", "main")
        assert plan.should_fire("rap.region.raise", "dgefa")

    def test_nested_plans_restore(self):
        with faults.injected(FaultSpec("rap.region.raise")) as outer:
            with faults.injected(FaultSpec("gra.spill.corrupt-slot")) as inner:
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None


class TestCorruptionCaught:
    """Every probe's corruption is caught *structurally* — by the stage
    recorded in SCENARIOS — never first observed as wrong program output."""

    @pytest.mark.parametrize("point", sorted(SCENARIOS))
    def test_probe_caught_at_stage(self, point):
        allocator, k, stage, spec_kwargs = SCENARIOS[point]
        with faults.injected(FaultSpec(point, **spec_kwargs)) as plan:
            with pytest.raises(StageError) as info:
                allocate_all(allocator, k)
            assert plan.fired, f"probe {point} never fired"
        assert info.value.stage == stage

    def test_raise_probe_preserves_cause(self):
        with faults.injected(FaultSpec("rap.region.raise")):
            with pytest.raises(StageError) as info:
                allocate_all("rap", 3)
        assert isinstance(info.value.cause, FaultInjected)
        assert info.value.cause.point == "rap.region.raise"


class TestFallbackContainment:
    """With a probe armed, `Harness.run` still completes — on a simpler
    allocator — and records the degradation."""

    @pytest.mark.parametrize("point", sorted(SCENARIOS))
    def test_harness_contains_probe(self, point):
        allocator, k, stage, _ = SCENARIOS[point]
        # times=None: the probe fires on every attempt of the *same*
        # allocator, so the fallback rung is reached because the next
        # allocator has no such probe, not because the fault expired.
        with faults.injected(FaultSpec(point, times=None)):
            harness = Harness([BENCH])
            run = harness.run(BENCH, allocator, k)
        assert run.allocator == allocator
        assert run.allocator_used != allocator
        assert run.fallbacks_taken
        event = run.fallbacks_taken[0]
        assert event.allocator == allocator
        assert event.stage == stage
        # The degraded run still computes the right answer.
        assert run.stats.output == harness.reference_output(BENCH)

    def test_fallback_disabled_raises(self):
        with faults.injected(FaultSpec("rap.region.raise")):
            harness = Harness([BENCH], fallback=False)
            with pytest.raises(StageError):
                harness.run(BENCH, "rap", 3)


class TestSchedulerProbe:
    """The scheduler probe corrupts the optional *schedule* stage, which
    is allocator-independent — it is caught by the schedule validator,
    not contained by the allocator ladder (every rung would reschedule
    and re-trip the same probe)."""

    def test_swap_caught_at_schedule_stage(self):
        with faults.injected(FaultSpec("sched.reorder-dependent")) as plan:
            with pytest.raises(StageError) as info:
                allocate_all("gra", 3, schedule=True)
            assert plan.fired, "scheduler probe never fired"
        assert info.value.stage == "schedule"

    def test_schedule_stage_healthy_without_plan(self):
        # With no plan armed the schedule stage runs and verifies clean.
        allocate_all("gra", 3, schedule=True)
