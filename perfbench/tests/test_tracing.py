import types

import pytest

from perfbench.tracing import Tracer, install_layer_wrappers, layer_metrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def child(seconds):
        clock.now += seconds

    def parent():
        clock.now += 1.0
        tracer.span("child", child, 2.0)
        tracer.span("child", child, 3.0)
        clock.now += 0.5

    tracer.span("parent", parent)
    assert tracer.self_times() == {"parent": 1.5, "child": 5.0}
    assert tracer.calls() == {"parent": 1, "child": 2}
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_self_time_of_grandchildren_belongs_to_the_child():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 4.0

    def middle():
        clock.now += 1.0
        tracer.span("leaf", leaf)

    tracer.span("top", lambda: tracer.span("middle", middle))
    assert tracer.self_times() == {"top": 0.0, "middle": 1.0, "leaf": 4.0}


def _module():
    module = types.ModuleType("fake")
    module.double = lambda x: 2 * x
    return module


def test_wrappers_record_and_restore_on_exit():
    module = _module()
    original = module.double

    class Thing:
        def value(self):
            return 42

    original_method = Thing.__dict__["value"]
    with Tracer() as tracer:
        tracer.wrap(module, "double", "fake.double")
        tracer.wrap(Thing, "value", "fake.value")
        assert module.double is not original
        assert module.double(3) == 6
        assert Thing().value() == 42
    assert module.double is original
    assert Thing.__dict__["value"] is original_method
    assert tracer.calls() == {"fake.double": 1, "fake.value": 1}


def test_wrappers_restore_when_the_traced_code_raises():
    module = _module()
    original = module.double
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.wrap(module, "double", "fake.double")
            raise RuntimeError("boom")
    assert module.double is original


def test_wrap_refuses_a_name_the_owner_does_not_define():
    class Base:
        def inherited(self):
            return 1

    class Child(Base):
        pass

    with Tracer() as tracer:
        with pytest.raises(AttributeError):
            tracer.wrap(Child, "inherited", "x")


def test_layer_wrappers_restore_every_program_function():
    import repro.regalloc as regalloc
    import repro.resilience.pipeline as pipeline
    from repro.interp.machine import Machine

    before = (pipeline.parse, regalloc.allocate_rap, Machine.__dict__["run"])
    with Tracer() as tracer:
        install_layer_wrappers(tracer)
        assert pipeline.parse is not before[0]
    assert (pipeline.parse, regalloc.allocate_rap, Machine.__dict__["run"]) == before


def test_an_empty_trace_gives_every_layer_figure():
    figures = layer_metrics(Tracer())
    assert all(value == 0 for value, _unit in figures.values())
    assert "validate.ssa_construction_s" in figures
    assert "interp.minstr_per_s" in figures
