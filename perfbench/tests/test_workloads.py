import hashlib

from perfbench.common import Outcome
from perfbench.tracing import Tracer, install_layer_wrappers, layer_metrics
from perfbench.workloads import compile as compile_workload
from perfbench.workloads import service as service_workload
from perfbench.workloads.inputs import Program, generated_programs
from perfbench.workloads.table1 import sweep


def test_traced_table1_renders_the_untraced_text():
    from repro.bench.suite import program

    subset = [program("hanoi"), program("sieve")]
    plain_text, _, _ = sweep(subset)
    with Tracer() as tracer:
        install_layer_wrappers(tracer)
        traced_text, runs, _ = sweep(subset)
    assert traced_text == plain_text
    assert len(runs) == 2 * 4 * 3
    self_times = tracer.self_times()
    assert self_times["interp.run"] > 0
    assert self_times["regalloc.ssaspill"] > 0
    assert tracer.counters["interp.cycles"] > 0


def test_back_to_back_traced_sweeps_translate_alike():
    # The interpreter's process-wide translation cache would let a
    # second sweep skip translation; each sweep empties it first.
    from repro.bench.suite import program

    subset = [program("hanoi"), program("sieve")]
    figures = []
    for _ in range(2):
        with Tracer() as tracer:
            install_layer_wrappers(tracer)
            sweep(subset)
        figures.append(layer_metrics(tracer))
    first, second = figures
    assert first["interp.translations"][0] > 0
    assert second["interp.translations"] == first["interp.translations"]
    assert first["interp.pycompile_s"][0] > 0
    assert second["interp.pycompile_s"][0] > 0.3 * first["interp.pycompile_s"][0]


def _trace_one_compile(rung):
    from repro.resilience.pipeline import PassPipeline, PipelineConfig
    from repro.service.server import compile_cold

    spec = {
        "source": _source("hanoi"),
        "rung": rung,
        "k": 3,
        "schedule": False,
        "execute": False,
        "entry": "main",
        "max_cycles": None,
        "filename": "hanoi",
        "allocator_requested": rung,
        "chaos": None,
    }
    with Tracer() as tracer:
        install_layer_wrappers(tracer)
        compile_cold(PassPipeline(PipelineConfig()), spec)
    return layer_metrics(tracer)


def test_rap_analysis_builds_count_only_rap():
    ssaspill = _trace_one_compile("ssaspill")
    assert ssaspill["regalloc.ssaspill.calls"][0] > 0  # one call per function
    assert ssaspill["regalloc.rounds"][0] > 0
    assert ssaspill["rap.analysis_builds"][0] == 0
    assert _trace_one_compile("rap")["rap.analysis_builds"][0] > 0


def test_the_service_stream_never_repeats_a_cold_key():
    pool = [Program("gen1", "a"), Program("gen2", "b")]
    inputs = service_workload.Inputs(hot=[(Program("hot", "h"), 3)], cold=pool)
    stream = service_workload.Stream(7, inputs)
    cold_keys = []
    for index in range(service_workload.COLD_EVERY * len(pool) * 4):
        request = stream.request(index)
        assert request is not None
        if request[0] == "cold":
            cold_keys.append(request[1])
    assert len(cold_keys) == len(set(cold_keys)) == len(pool) * 4
    assert {k for _, k in cold_keys} == set(service_workload.COLD_K)
    used_up = service_workload.COLD_EVERY * len(pool) * 4 + service_workload.COLD_EVERY - 1
    assert stream.request(used_up) is None


def test_the_digest_check_fires_on_an_altered_image(monkeypatch):
    hanoi = Program("hanoi", _source("hanoi"))
    results = compile_workload._compile_all([hanoi])
    inputs = compile_workload.Inputs(registered=[hanoi], generated=[])
    monkeypatch.setattr(
        compile_workload, "committed_digest", lambda: compile_workload.fold_digest(results)
    )

    healthy = Outcome()
    compile_workload._check(healthy, [(1.0, results)], inputs)
    assert healthy.correct and healthy.failed == 0

    altered = list(results)
    victim = altered[4]
    blob = victim.blob.replace(b"hanoi", b"hanoj", 1)
    assert blob != victim.blob
    altered[4] = compile_workload.Compiled(
        victim.program,
        victim.rung,
        victim.k,
        victim.ms,
        sha256=hashlib.sha256(blob).hexdigest(),
        used=victim.used,
        blob=blob,
    )
    broken = Outcome()
    compile_workload._check(broken, [(1.0, altered)], inputs)
    assert not broken.correct
    assert any("digest" in violation for violation in broken.violations)


def test_screening_excludes_a_program_that_faults():
    # random_source(2065, "medium") overflows during its reference run.
    screened = generated_programs(2065, "medium", (0, 10**6), budget=1)
    assert screened.excluded and screened.excluded[0].startswith("2065 ")
    assert [p.label for p in screened.programs] == ["gen2066"]
    assert screened.programs[0].expected is not None


def _source(name):
    from repro.bench.suite import program

    return program(name).source()
