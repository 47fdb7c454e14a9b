"""Golden equivalence of the compiled tier and the slow path.

The compile-to-Python tier must be an *observationally invisible*
optimization: identical outputs,
identical cycle/load/store/copy counters (total and per-function), and
identical fault annotations — with the fault pc always reported in
original-code coordinates, even though the generated Python executes
label-stripped code and only reconciles counters at segment boundaries.
"""

import gc
import os
import weakref

import pytest

from repro.bench.suite import all_programs, program
from repro.compiler import compile_source
from repro.interp import pycompile
from repro.interp.machine import (
    FunctionImage,
    Machine,
    ProgramImage,
    Tracer,
)
from repro.interp.memory import MachineFault
from repro.ir import iloc
from repro.ir.iloc import Instr, Op, Symbol, vreg
from repro.resilience import faults
from repro.resilience.corpus import load_corpus
from repro.resilience.pipeline import PassPipeline
from repro.testing import random_source


def execute(image, tier, entry="main", run_args=(), max_cycles=5_000_000):
    """Run one tier; returns (stats, fault-or-None)."""
    machine = Machine(image, max_cycles=max_cycles, tier=tier)
    fault = None
    try:
        machine.run(entry, run_args)
    except MachineFault as err:
        fault = (err.message, err.function, err.pc, err.cycles)
    return machine.stats, fault


def assert_tiers_agree(image, entry="main", run_args=(), max_cycles=5_000_000):
    """Slow vs compiled on the same image; returns the (shared) fault."""
    slow_stats, slow_fault = execute(
        image, "slow", entry=entry, run_args=run_args, max_cycles=max_cycles
    )
    comp_stats, comp_fault = execute(
        image, "compiled", entry=entry, run_args=run_args, max_cycles=max_cycles
    )
    assert comp_fault == slow_fault
    assert comp_stats.output == slow_stats.output
    assert comp_stats.total == slow_stats.total
    assert comp_stats.per_function == slow_stats.per_function
    assert comp_stats.interp_tier == "compiled"
    assert slow_stats.interp_tier == "slow"
    return slow_fault


def allocated_image(prog, allocator, k):
    image, _ = PassPipeline().allocate_program(prog, allocator, k)
    return image


class TestBenchEquivalence:
    @pytest.mark.parametrize("bench", all_programs(), ids=lambda b: b.name)
    def test_reference_image_equivalence(self, bench):
        image = compile_source(
            bench.source(), filename=bench.filename
        ).reference_image()
        fault = assert_tiers_agree(image, max_cycles=bench.max_cycles)
        assert fault is None


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_seed_equivalence(self, seed):
        # Mirrors the CI fuzz configuration (25 seeds, size="small",
        # 3M-cycle budget) on the unallocated reference image.
        source = random_source(seed, "small")
        image = compile_source(source).reference_image()
        assert_tiers_agree(image, max_cycles=3_000_000)


def _corpus_entries():
    corpus = load_corpus(
        os.path.join(os.path.dirname(__file__), "..", "corpus")
    )
    return corpus, corpus.entries


class TestCorpusEquivalence:
    corpus, entries = _corpus_entries()

    @pytest.mark.parametrize(
        "entry", entries, ids=lambda entry: entry.file
    )
    def test_corpus_program_equivalence(self, entry):
        with open(entry.path(self.corpus.directory)) as handle:
            source = handle.read()
        image = compile_source(source).reference_image()
        assert_tiers_agree(image, max_cycles=3_000_000)


class TestAllocatedEquivalence:
    """Allocated (finite register file, spill code) images run through
    the same generated-code path — spill slots become Python locals."""

    @pytest.mark.parametrize("name", ["perm", "sieve", "queens"])
    @pytest.mark.parametrize("allocator", ["gra", "rap"])
    @pytest.mark.parametrize("k", [3, 8])
    def test_allocated_equivalence(self, name, allocator, k):
        bench = program(name)
        prog = compile_source(bench.source(), filename=bench.filename)
        image = allocated_image(prog, allocator, k)
        fault = assert_tiers_agree(image, max_cycles=bench.max_cycles)
        assert fault is None


def single_image(code, globals_=(), params=(), extra=None):
    functions = {"f": FunctionImage("f", code, list(params))}
    if extra:
        functions.update(extra)
    return ProgramImage(list(globals_), functions)


class TestFaultEquivalence:
    """Hand-built images hitting every fault class on both tiers: the
    compiled tier must agree with the slow path on the same coordinates."""

    def test_uninitialized_register(self):
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                iloc.binary(Op.ADD, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault == ("read of uninitialized register %v9 in f", "f", 1, 2)

    @pytest.mark.parametrize("op", [Op.DIV, Op.MOD])
    def test_division_by_zero(self, op):
        image = single_image(
            [
                iloc.loadi(7, vreg(0)),
                iloc.loadi(0, vreg(1)),
                iloc.binary(op, vreg(0), vreg(1), vreg(2)),
                Instr(Op.RET, srcs=[vreg(2)]),
            ]
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault is not None
        assert "by zero" in fault[0]
        assert fault[1:] == ("f", 2, 3)

    def test_cycle_budget_exceeded(self):
        image = single_image(
            [
                iloc.label("spin"),
                iloc.jmp("spin"),
            ]
        )
        fault = assert_tiers_agree(image, entry="f", max_cycles=1000)
        assert fault == ("cycle budget exceeded in f", "f", 1, 1001)

    def test_unknown_function(self):
        image = single_image([Instr(Op.CALL, callee="nope"), Instr(Op.RET)])
        fault = assert_tiers_agree(image, entry="f")
        assert fault is not None
        assert "nope" in fault[0]
        assert fault[1:] == ("f", 0, 1)

    def test_too_few_queued_params(self):
        callee = FunctionImage("g", [Instr(Op.RET)], ["g.%arg0", "g.%arg1"])
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                Instr(Op.PARAM, srcs=[vreg(0)]),
                Instr(Op.CALL, callee="g"),
                Instr(Op.RET),
            ],
            extra={"g": callee},
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault == ("call to g with too few queued params", "f", 2, 3)

    def test_bad_heap_address(self):
        image = single_image(
            [
                iloc.loadi(-1, vreg(0)),
                iloc.load(vreg(0), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault is not None
        assert fault[1:] == ("f", 1, 2)

    def test_non_integer_heap_address(self):
        image = single_image(
            [
                iloc.loadi(1.5, vreg(0)),
                iloc.load(vreg(0), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault is not None
        assert fault[1:] == ("f", 1, 2)

    def test_unknown_global_array(self):
        image = single_image(
            [
                Instr(Op.LOADA, addr=Symbol("ghost", "global"), dst=vreg(0)),
                Instr(Op.RET, srcs=[vreg(0)]),
            ]
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault == ("unknown global array 'ghost'", "f", 0, 1)

    def test_fault_pc_is_original_coordinates(self):
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                iloc.label("a"),
                iloc.label("b"),
                iloc.binary(Op.ADD, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault == ("read of uninitialized register %v9 in f", "f", 3, 2)

    @pytest.mark.parametrize(
        "op,first",
        [
            (Op.AND, 0),  # falsy left: right operand never read
            (Op.OR, 1),   # truthy left: right operand never read
        ],
    )
    def test_short_circuit_skips_uninitialized_operand(self, op, first):
        image = single_image(
            [
                iloc.loadi(first, vreg(0)),
                iloc.binary(op, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_tiers_agree(image, entry="f")
        assert fault is None


class TestNonFiniteImmediates:
    """``repr`` of a non-finite float is no Python expression: ``loadi``
    of ``inf``, ``-inf`` or ``nan`` must still run compiled.  Outputs are
    compared as text because ``nan != nan``."""

    @staticmethod
    def printed(image, tier, entry):
        stats, fault = execute(image, tier, entry=entry)
        assert fault is None
        assert stats.interp_tier == tier
        return stats, [str(item) for item in stats.output]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_loadi_immediate(self, value):
        def image():
            return single_image(
                [
                    iloc.loadi(float(value), vreg(0)),
                    Instr(Op.PRINT, srcs=[vreg(0)]),
                    Instr(Op.RET),
                ]
            )

        slow_stats, slow_out = self.printed(image(), "slow", "f")
        comp_stats, comp_out = self.printed(image(), "compiled", "f")
        assert comp_out == slow_out == [value]
        assert comp_stats.total == slow_stats.total

    def test_source_overflow_literal(self):
        source = (
            "void main() { float x; x = 1e999;"
            " print(x); print(-x); print(x - x); }"
        )
        slow_stats, slow_out = self.printed(
            compile_source(source).reference_image(), "slow", "main"
        )
        comp_stats, comp_out = self.printed(
            compile_source(source).reference_image(), "compiled", "main"
        )
        assert comp_out == slow_out == ["inf", "-inf", "nan"]
        assert comp_stats.total == slow_stats.total
        assert comp_stats.per_function == slow_stats.per_function


BUDGET_SOURCE = """
int work(int n) {
    int arr[8];
    int i; int s;
    s = 0;
    for (i = 0; i < 8; i = i + 1) { arr[i] = i * n; }
    for (i = 0; i < 8; i = i + 1) { s = s + arr[i]; }
    return s;
}
void main() {
    int t; int j;
    t = 0;
    for (j = 0; j < 1000; j = j + 1) { t = t + work(j); }
    print(t);
}
"""


class TestBudgetBail:
    """Mid-segment budget exhaustion bails to the slow loop, which must
    land on exactly a whole slow run's fault coordinates and counters."""

    @pytest.mark.parametrize("budget", [500, 5_000, 50_000])
    def test_budget_fault_equivalence_reference(self, budget):
        image = compile_source(BUDGET_SOURCE).reference_image()
        fault = assert_tiers_agree(image, max_cycles=budget)
        assert fault is not None
        assert "cycle budget exceeded" in fault[0]

    @pytest.mark.parametrize("budget", [500, 5_000])
    def test_budget_fault_equivalence_spilled(self, budget):
        # rap at k=3 spills: the bail path must materialize the spill
        # slots it promoted to Python locals before the slow loop resumes.
        prog = compile_source(BUDGET_SOURCE)
        image = allocated_image(prog, "rap", 3)
        fault = assert_tiers_agree(image, max_cycles=budget)
        assert fault is not None
        assert "cycle budget exceeded" in fault[0]


class TestTierSelection:
    """Tier resolution, forcing precedence, and demotion to the slow
    path for observation mechanisms — without translating anything."""

    def source_image(self):
        return compile_source(
            "void main() { int i; int s; s = 0;"
            " for (i = 0; i < 10; i = i + 1) { s = s + i; }"
            " print(s); }"
        ).reference_image()

    def test_compiled_is_the_default_tier(self):
        machine = Machine(self.source_image())
        assert machine.tier == "compiled"
        assert machine.interp_tier() == "compiled"

    def test_env_selects_tier(self, monkeypatch):
        for tier in ("slow", "compiled"):
            monkeypatch.setenv("REPRO_INTERP", tier)
            assert Machine(self.source_image()).tier == tier
        with pytest.raises(ValueError):
            Machine(self.source_image(), tier="fast")

    def test_explicit_tier_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTERP", "slow")
        machine = Machine(self.source_image(), tier="compiled")
        assert machine.tier == "compiled"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            Machine(self.source_image(), tier="turbo")

    def test_compiled_run_populates_caches_and_stats(self):
        image = self.source_image()
        machine = Machine(image, tier="compiled")
        machine.run("main")
        assert machine.stats.output == [45]
        assert machine.stats.interp_tier == "compiled"
        assert image.functions["main"]._compiled is not None
        assert image.functions["main"]._decoded is not None
        assert machine.pycompile_seconds > 0.0
        assert machine.decode_seconds > 0.0

    def test_tracer_demotes_to_slow(self):
        image = self.source_image()
        tracer = Tracer()
        machine = Machine(image, tier="compiled", tracer=tracer)
        assert machine.interp_tier() == "slow"
        machine.run("main")
        assert machine.stats.output == [45]
        assert machine.stats.interp_tier == "slow"
        assert tracer.events  # the slow path actually recorded
        assert image.functions["main"]._compiled is None
        assert image.functions["main"]._decoded is None

    def test_slow_tier_translates_nothing(self):
        image = self.source_image()
        machine = Machine(image, tier="slow")
        machine.run("main")
        assert image.functions["main"]._compiled is None
        assert image.functions["main"]._decoded is None

    def test_armed_fault_plan_demotes_compiled_env(self, monkeypatch):
        """The ISSUE regression: REPRO_INTERP=compiled with an armed
        fault plan must run the slow path with unchanged annotations."""
        monkeypatch.setenv("REPRO_INTERP", "compiled")
        image = self.source_image()
        with faults.injected(faults.FaultSpec("rap.region.raise", "nope")):
            machine = Machine(image)
            assert machine.tier == "compiled"  # requested...
            assert machine.interp_tier() == "slow"  # ...but demoted
            machine.run("main")
        assert machine.stats.output == [45]
        assert machine.stats.interp_tier == "slow"
        # Nothing was translated or decoded behind the plan's back.
        assert image.functions["main"]._compiled is None
        assert image.functions["main"]._decoded is None
        # Annotations identical to an explicitly slow run.
        slow_stats, _ = execute(self.source_image(), "slow")
        assert machine.stats.total == slow_stats.total
        assert machine.stats.per_function == slow_stats.per_function

    def test_plan_disarm_restores_compiled_between_runs(self):
        image = self.source_image()
        machine = Machine(image, tier="compiled")
        with faults.injected(faults.FaultSpec("rap.region.raise", "nope")):
            machine.run("main")
            assert machine.stats.interp_tier == "slow"
        machine.stats.output.clear()
        machine.run("main")
        assert machine.stats.interp_tier == "compiled"
        assert image.functions["main"]._compiled is not None


class TestArtifactCache:
    """The content-addressed translation cache must key apart immediates
    that compare equal (``7.0 == 7``, ``-0.0 == 0.0``), share one
    artifact between structurally identical functions, and keep no image
    alive: a shared artifact finds its running image through the machine.
    """

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        """A private, empty translation cache for each test."""
        monkeypatch.setattr(pycompile, "_ARTIFACTS", {})

    @staticmethod
    def _div_image(numerator):
        return single_image(
            [
                iloc.loadi(numerator, vreg(0)),
                iloc.loadi(2, vreg(1)),
                iloc.binary(Op.DIV, vreg(0), vreg(1), vreg(2)),
                Instr(Op.RET, srcs=[vreg(2)]),
            ]
        )

    def test_float_and_int_immediates_do_not_collide(self):
        int_result = Machine(self._div_image(7), tier="compiled").run("f")
        float_result = Machine(self._div_image(7.0), tier="compiled").run("f")
        assert int_result == 3
        assert float_result == 3.5
        # And in the other arrival order, with fresh images.
        float_again = Machine(self._div_image(7.0), tier="compiled").run("f")
        int_again = Machine(self._div_image(7), tier="compiled").run("f")
        assert float_again == 3.5
        assert int_again == 3

    def test_identical_functions_share_one_artifact(self):
        first = self._div_image(7)
        second = self._div_image(7)
        Machine(first, tier="compiled").run("f")
        Machine(second, tier="compiled").run("f")
        assert first.functions["f"]._compiled is not None
        assert (
            first.functions["f"]._compiled
            is second.functions["f"]._compiled
        )

    def test_signed_zero_immediates_do_not_collide(self):
        def zero_image(value):
            return single_image(
                [
                    iloc.loadi(value, vreg(0)),
                    Instr(Op.PRINT, srcs=[vreg(0)]),
                    Instr(Op.RET),
                ]
            )

        def printed(value, tier):
            stats, fault = execute(zero_image(value), tier, entry="f")
            assert fault is None
            return [repr(item) for item in stats.output]

        for order in ((0.0, -0.0), (-0.0, 0.0)):
            pycompile._ARTIFACTS.clear()
            for value in order:
                assert printed(value, "compiled") == printed(value, "slow")
        assert printed(-0.0, "compiled") == ["-0.0"]

    def test_cache_pins_no_image(self):
        image = self._div_image(7)
        machine = Machine(image, tier="compiled")
        assert machine.run("f") == 3
        function = image.functions["f"]
        artifact = function._compiled
        image_ref = weakref.ref(function)
        decoded_ref = weakref.ref(function._decoded)
        del machine, image, function
        gc.collect()
        assert image_ref() is None
        assert decoded_ref() is None
        assert artifact in pycompile._ARTIFACTS.values()

    def test_bail_on_shared_artifact_after_first_image_is_gone(self):
        def loop_image():
            # Two entry cycles, then a five-cycle loop body with no call:
            # one straight-line segment per iteration.
            return single_image(
                [
                    iloc.loadi(0, vreg(0)),
                    iloc.loadi(1, vreg(1)),
                    iloc.label("loop"),
                    iloc.binary(Op.ADD, vreg(0), vreg(1), vreg(0)),
                    iloc.binary(Op.ADD, vreg(0), vreg(1), vreg(0)),
                    iloc.binary(Op.ADD, vreg(0), vreg(1), vreg(0)),
                    iloc.binary(Op.ADD, vreg(0), vreg(1), vreg(0)),
                    iloc.jmp("loop"),
                ]
            )

        first = loop_image()
        artifact = first.functions["f"].compiled_or_none()
        assert artifact is not None
        first_ref = weakref.ref(first.functions["f"])
        del first
        gc.collect()
        assert first_ref() is None

        second = loop_image()
        # 2 + 5 + 5 = 12 cycles fit in 13; the third iteration's segment
        # does not, so compiled code bails there and the slow loop faults
        # on that segment's second instruction.
        fault = assert_tiers_agree(second, entry="f", max_cycles=13)
        assert second.functions["f"]._compiled is artifact
        assert fault == ("cycle budget exceeded in f", "f", 4, 14)
