"""RAP's snapshot reuse and victim-scoped re-analysis must be invisible in
results.

``allocate_rap(..., paranoid_analysis=True)`` takes a whole-function
snapshot for every query after a mutation (the pre-caching behaviour);
the default path reuses the round-start snapshot across all victims of
one spill round and derives the next round's snapshot from it, re-solving
only the spilled registers.  Both must produce identical code, spill
decisions, assignments and rounds — with fewer whole-function builds on
programs that spill — over the whole service pre-warm set (every
registered program at k in {3, 5}) plus seeded generated programs.
"""

import pytest

from repro.bench.suite import all_programs, program
from repro.compiler import compile_source
from repro.pdg import liveness as pdg_liveness
from repro.regalloc.rap.allocator import allocate_rap
from repro.testing.generator import random_source

PREWARM_CELLS = [
    pytest.param(bench.name, k, id=f"{bench.name}-{k}")
    for bench in all_programs()
    for k in (3, 5)
]

#: (generator seed, size) of generated programs that spill at k=3.
GENERATED = [(0, "large"), (1, "large"), (3, "large")]

#: summed RAP (rounds, spills) telemetry over every function of every
#: registered program, per k — the allocation decisions the snapshot
#: machinery must never change.
PINNED_TOTALS = {3: (456, 846), 5: (231, 371), 8: (97, 72)}


def allocate_all(source, k, **kwargs):
    module = compile_source(source).fresh_module()
    results = {}
    for name, func in module.functions.items():
        results[name] = allocate_rap(func, k, **kwargs)
    return results


def assert_same_as_paranoid(source, k):
    cached = allocate_all(source, k)
    paranoid = allocate_all(source, k, paranoid_analysis=True)
    total_cached = total_paranoid = 0
    spilled_somewhere = False
    for name in cached:
        ra, rb = cached[name], paranoid[name]
        assert [str(i) for i in ra.code] == [str(i) for i in rb.code], name
        # Region display names draw on a process-global counter, so
        # compare the spill decisions (victim sequences), not the labels.
        assert [v for _, v in ra.spill_log] == [v for _, v in rb.spill_log]
        assert ra.assignment == rb.assignment, name
        assert ra.rounds == rb.rounds, name
        assert ra.analysis_builds <= rb.analysis_builds, name
        spilled_somewhere = spilled_somewhere or bool(ra.spill_log)
        total_cached += ra.analysis_builds
        total_paranoid += rb.analysis_builds
    if spilled_somewhere:
        assert total_cached < total_paranoid
    return spilled_somewhere


@pytest.mark.parametrize("bench_name,k", PREWARM_CELLS)
def test_cached_matches_paranoid(bench_name, k):
    assert_same_as_paranoid(program(bench_name).source(), k)


@pytest.mark.parametrize("seed,size", GENERATED)
def test_generated_cached_matches_paranoid(seed, size):
    assert assert_same_as_paranoid(random_source(seed, size), 3), "no longer spills"


@pytest.mark.parametrize("k", sorted(PINNED_TOTALS))
def test_registered_rounds_and_spills_pinned(k):
    rounds = spills = 0
    for bench in all_programs():
        for result in allocate_all(bench.source(), k).values():
            counters = result.telemetry()
            rounds += counters["rounds"]
            spills += counters["spills"]
    assert (rounds, spills) == PINNED_TOTALS[k]


def test_one_whole_function_build_per_function():
    # Every later snapshot is derived from the first one.
    source = program("livermore").source()
    for result in allocate_all(source, 3).values():
        assert result.analysis_builds == 1


def test_unpatchable_spill_takes_a_fresh_snapshot(monkeypatch):
    # When the spill code cannot be spliced into the cached snapshot, the
    # next snapshot is a whole-function build with the same answers.
    source = program("livermore").source()
    derived = allocate_all(source, 3)
    monkeypatch.setattr(pdg_liveness, "insert_instrs", lambda code, placements: None)
    rebuilt = allocate_all(source, 3)
    for name, result in rebuilt.items():
        assert [str(i) for i in result.code] == [str(i) for i in derived[name].code]
        assert result.assignment == derived[name].assignment, name
        assert result.rounds == derived[name].rounds, name
    builds = sum(result.analysis_builds for result in rebuilt.values())
    assert builds > len(rebuilt)


def test_analysis_builds_surface_in_telemetry():
    source = program("queens").source()
    module = compile_source(source).fresh_module()
    func = module.functions["queens"]
    result = allocate_rap(func, 3)
    counters = result.telemetry()
    assert counters["analysis_builds"] == result.analysis_builds
    assert result.analysis_builds >= 1


def test_version_counter_tracks_mutation():
    source = program("hanoi").source()
    module = compile_source(source).fresh_module()
    func = module.functions["hanoi"]
    before = func.version
    allocate_rap(func, 3)
    assert func.version > before
