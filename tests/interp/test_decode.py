"""The compiled tier's translation-failure fallback.

When a decoded image cannot be translated to Python, the compiled tier
runs that image on the slow loop while every other image stays
compiled.  Such a mixed run must be observationally identical to a whole
slow run: identical outputs, identical cycle/load/store/copy counters
(total and per-function), and identical fault annotations — whether the
fault is raised by a fallen-back function or by compiled code around it.
Translation failure is forced by making ``pycompile.compile_decoded``
raise for chosen function names.
"""

import pytest

from repro.bench.suite import all_programs
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


def assert_fallback_agrees(
    image, failing, entry="main", run_args=(), max_cycles=5_000_000
):
    """Slow run vs a compiled run in which translating any function named
    in ``failing`` raises; returns the (shared) fault.  ``failing`` may
    also be a function of the names the slow run activated."""
    translate = pycompile.compile_decoded

    def compile_decoded(image, decoded):
        if decoded.name in failing:
            raise RuntimeError(f"cannot translate {decoded.name}")
        return translate(image, decoded)

    slow_stats, slow_fault = execute(
        image, "slow", entry=entry, run_args=run_args, max_cycles=max_cycles
    )
    if callable(failing):
        failing = failing(set(slow_stats.per_function))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pycompile, "compile_decoded", compile_decoded)
        comp_stats, comp_fault = execute(
            image, "compiled", entry=entry, run_args=run_args, max_cycles=max_cycles
        )
    assert comp_fault == slow_fault
    assert comp_stats.output == slow_stats.output
    assert comp_stats.total == slow_stats.total
    assert comp_stats.per_function == slow_stats.per_function
    assert comp_stats.interp_tier == "compiled"
    # Every activated function ran on the tier the test asked for, and
    # at least one of them on the fallback (an image translated before
    # the patch would show up here as compiled).
    activated = {
        name: function._compiled
        for name, function in image.functions.items()
        if function._compiled is not None
    }
    assert any(name in failing for name in activated)
    for name, compiled in activated.items():
        assert (compiled is False) == (name in failing)
    return slow_fault


def callees_fail(activated):
    """Every activated function but ``main`` fails to translate (``main``
    itself if it calls nothing): compiled ``main`` calls fallen-back code."""
    return activated - {"main"} or {"main"}


class TestBenchEquivalence:
    @pytest.mark.parametrize(
        "bench", all_programs(), ids=lambda b: b.name
    )
    def test_reference_image_equivalence(self, bench):
        image = compile_source(
            bench.source(), filename=bench.filename
        ).reference_image()
        fault = assert_fallback_agrees(
            image, callees_fail, max_cycles=bench.max_cycles
        )
        assert fault is None


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_seed_equivalence(self, seed):
        # Mirrors the CI fuzz configuration (25 seeds, size="small",
        # 3M-cycle budget) on the unallocated reference image.  Even
        # seeds run compiled main over fallen-back callees, odd seeds
        # the other way round.
        source = random_source(seed, "small")
        image = compile_source(source).reference_image()
        failing = callees_fail if seed % 2 == 0 else {"main"}
        assert_fallback_agrees(image, failing, max_cycles=3_000_000)


def single_image(code, globals_=(), params=(), extra=None):
    functions = {"f": FunctionImage("f", code, list(params))}
    if extra:
        functions.update(extra)
    return ProgramImage(list(globals_), functions)


class TestFaultEquivalence:
    """Hand-built images hitting every fault class on a function whose
    translation failed."""

    @staticmethod
    def assert_agree(image, **kwargs):
        return assert_fallback_agrees(image, {"f"}, entry="f", **kwargs)

    def test_uninitialized_register(self):
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                iloc.binary(Op.ADD, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = self.assert_agree(image)
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
        fault = self.assert_agree(image)
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
        fault = self.assert_agree(image, max_cycles=1000)
        assert fault == ("cycle budget exceeded in f", "f", 1, 1001)

    def test_unknown_function(self):
        image = single_image([Instr(Op.CALL, callee="nope"), Instr(Op.RET)])
        fault = self.assert_agree(image)
        assert fault is not None
        assert "nope" in fault[0]
        assert fault[1:] == ("f", 0, 1)

    def test_too_few_queued_params(self):
        callee = FunctionImage(
            "g", [Instr(Op.RET)], ["g.%arg0", "g.%arg1"]
        )
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                Instr(Op.PARAM, srcs=[vreg(0)]),
                Instr(Op.CALL, callee="g"),
                Instr(Op.RET),
            ],
            extra={"g": callee},
        )
        fault = self.assert_agree(image)
        assert fault == ("call to g with too few queued params", "f", 2, 3)

    def test_bad_heap_address(self):
        image = single_image(
            [
                iloc.loadi(-1, vreg(0)),
                iloc.load(vreg(0), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = self.assert_agree(image)
        assert fault is not None
        assert fault[1:] == ("f", 1, 2)

    def test_unknown_global_array(self):
        image = single_image(
            [
                Instr(Op.LOADA, addr=Symbol("ghost", "global"), dst=vreg(0)),
                Instr(Op.RET, srcs=[vreg(0)]),
            ]
        )
        fault = self.assert_agree(image)
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
        fault = self.assert_agree(image)
        # pc 3 in original code (after two labels); labels cost no cycles.
        assert fault == ("read of uninitialized register %v9 in f", "f", 3, 2)

    @pytest.mark.parametrize(
        "op,first,expected",
        [
            (Op.AND, 0, 0),  # falsy left: right operand never read
            (Op.OR, 1, 1),   # truthy left: right operand never read
        ],
    )
    def test_short_circuit_skips_uninitialized_operand(
        self, op, first, expected
    ):
        image = single_image(
            [
                iloc.loadi(first, vreg(0)),
                iloc.binary(op, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = self.assert_agree(image)
        assert fault is None
        assert Machine(image, tier="compiled").run("f") == expected


CALLER_SOURCE = """
int work(int n) {
    int arr[4];
    int i; int s;
    s = 0;
    for (i = 0; i < 4; i = i + 1) { arr[i] = i * n; }
    for (i = 0; i < 4; i = i + 1) { s = s + arr[i]; }
    return s;
}
int ratio(int n) { return 100 / n; }
void main() {
    int t; int j;
    t = 0;
    for (j = 0; j < 50; j = j + 1) { t = t + work(j); }
    print(t);
    print(ratio(7));
    print(ratio(j - 50));
}
"""


class TestTranslationFailureFallback:
    """A compiled caller and a callee that could not be translated."""

    def image(self):
        return compile_source(CALLER_SOURCE).reference_image()

    def test_compiled_caller_calls_failed_callee(self):
        fault = assert_fallback_agrees(self.image(), {"work"})
        # ratio(0) divides by zero after work's output is printed.
        assert fault is not None
        assert fault[:2] == ("division by zero", "ratio")

    @pytest.mark.parametrize("max_cycles", [None, 700])
    def test_failed_callee_faults(self, max_cycles):
        kwargs = {} if max_cycles is None else {"max_cycles": max_cycles}
        fault = assert_fallback_agrees(self.image(), {"work", "ratio"}, **kwargs)
        assert fault is not None
        if max_cycles is None:
            assert fault[:2] == ("division by zero", "ratio")
        else:
            assert "cycle budget exceeded" in fault[0]


class TestSlowPathForcing:
    """Tracing and fault injection demote to the slow loop without
    decoding anything, so no fallback is ever consulted."""

    def source_image(self):
        return compile_source(
            "void main() { int i; int s; s = 0;"
            " for (i = 0; i < 10; i = i + 1) { s = s + i; }"
            " print(s); }"
        ).reference_image()

    def test_tracer_forces_slow_path(self):
        image = self.source_image()
        tracer = Tracer()
        machine = Machine(image, tracer=tracer)
        assert machine.interp_tier() == "slow"
        machine.run("main")
        assert machine.stats.output == [45]
        assert tracer.events  # the slow path actually recorded
        assert image.functions["main"]._decoded is None

    def test_armed_fault_probe_forces_slow_path(self):
        image = self.source_image()
        with faults.injected(faults.FaultSpec("rap.region.raise", "nope")):
            machine = Machine(image)
            assert machine.interp_tier() == "slow"
            machine.run("main")
        assert machine.stats.output == [45]
        assert image.functions["main"]._decoded is None
