"""Tests for the PassPipeline stage runner."""

import pytest

from repro.compiler import param_slots
from repro.frontend.errors import FrontendError
from repro.interp.machine import FunctionImage, ProgramImage
from repro.resilience.errors import MiscompileError, StageError
from repro.resilience.pipeline import STAGES, PassPipeline, PipelineConfig

GOOD = """
int f(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
}
void main() { print(f(10)); }
"""


def allocate_image(pipe, prog, allocator, k):
    module = prog.fresh_module()
    functions = {}
    for name, func in module.functions.items():
        result = pipe.allocate(func, allocator, k)
        functions[name] = FunctionImage(name, result.code, param_slots(func))
    return ProgramImage(list(module.globals.values()), functions)


class TestStages:
    def test_stage_names(self):
        assert STAGES == (
            "parse", "sema", "pdg-build", "allocate", "validate",
            "schedule", "execute",
        )

    @pytest.mark.parametrize(
        "allocator", ["gra", "rap", "linearscan", "spillall"]
    )
    def test_full_pipeline_healthy(self, allocator):
        pipe = PassPipeline()
        prog = pipe.compile(GOOD)
        image = allocate_image(pipe, prog, allocator, 4)
        stats = pipe.execute(image)
        assert stats.output == [45]

    def test_parse_error_wrapped(self):
        pipe = PassPipeline()
        with pytest.raises(StageError) as info:
            pipe.compile("void main() { int ; }")
        assert info.value.stage == "parse"
        assert isinstance(info.value.cause, FrontendError)

    def test_sema_error_wrapped(self):
        pipe = PassPipeline()
        with pytest.raises(StageError) as info:
            pipe.compile("void main() { x = 1; }")
        assert info.value.stage == "sema"

    def test_frontend_unwrapped_when_configured(self):
        pipe = PassPipeline(PipelineConfig(wrap_frontend_errors=False))
        with pytest.raises(FrontendError):
            pipe.compile("void main() { int ; }")

    def test_unknown_allocator_rejected(self):
        pipe = PassPipeline()
        prog = pipe.compile(GOOD)
        func = next(iter(prog.fresh_module().functions.values()))
        with pytest.raises(ValueError):
            pipe.allocate(func, "magic", 4)

    def test_allocate_error_context(self):
        pipe = PassPipeline()
        prog = pipe.compile(GOOD)
        func = prog.fresh_module().functions["f"]
        with pytest.raises(StageError) as info:
            pipe.allocate(func, "gra", 2)  # k < 3 is an allocator error
        err = info.value
        assert err.stage == "allocate"
        assert err.context.function == "f"
        assert err.context.allocator == "gra"
        assert err.context.k == 2
        assert "k=2" in err.context.describe()

    def test_execute_budget_becomes_stage_error(self):
        pipe = PassPipeline()
        prog = pipe.compile(GOOD)
        with pytest.raises(StageError) as info:
            pipe.execute(prog.reference_image(), max_cycles=10)
        assert info.value.stage == "execute"

    def test_defaults_stamped_on_errors(self):
        pipe = PassPipeline(seed=17)
        prog = pipe.compile(GOOD)
        func = prog.fresh_module().functions["f"]
        with pytest.raises(StageError) as info:
            pipe.allocate(func, "gra", 2)
        assert info.value.context.seed == 17


class TestCheckOutput:
    def test_equal_outputs_pass(self):
        PassPipeline().check_output([1, 2.0], [1, 2.0])

    def test_nan_tolerant(self):
        nan = float("nan")
        PassPipeline().check_output([nan, 1], [nan, 1])

    def test_divergence_raises_miscompile(self):
        pipe = PassPipeline()
        with pytest.raises(MiscompileError) as info:
            pipe.check_output([1, 2, 9], [1, 2, 3], allocator="gra", k=3)
        err = info.value
        assert err.divergence_index == 2
        assert err.expected == [1, 2, 3]
        assert err.actual == [1, 2, 9]
        assert isinstance(err, StageError)  # one handler catches both
        assert "index 2" in err.render()

    def test_length_divergence(self):
        pipe = PassPipeline()
        with pytest.raises(MiscompileError) as info:
            pipe.check_output([1], [1, 2])
        assert info.value.divergence_index == 1
