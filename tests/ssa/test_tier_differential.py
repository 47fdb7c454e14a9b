"""ssaspill-allocated images execute byte-identically on both
interpreter tiers.

The differential sweep mirrors the CI fuzz configuration: the bench
suite, 25 generator seeds, and the committed corpus, each compiled,
allocated by the SSA spill-then-color rung through the verifying
pipeline, and executed on the ``slow`` and ``compiled`` tiers.
Outputs and all counters (total and per-function) must agree exactly —
the allocator is a measurement competitor, so a tier-specific divergence
would silently skew Table 1.
"""

import os

import pytest

from repro.bench.suite import all_programs
from repro.compiler import compile_source
from repro.interp.machine import INTERP_TIERS, Machine
from repro.resilience.corpus import load_corpus
from repro.resilience.pipeline import PassPipeline
from repro.testing import random_source

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")


def ssaspill_image(prog, k):
    image, _ = PassPipeline().allocate_program(prog, "ssaspill", k)
    return image


def run_tier(image, tier, max_cycles):
    machine = Machine(image, max_cycles=max_cycles, tier=tier)
    machine.run("main")
    return machine.stats


def assert_tiers_agree(image, max_cycles):
    slow, compiled = (
        run_tier(image, tier, max_cycles) for tier in INTERP_TIERS
    )
    assert compiled.output == slow.output
    assert compiled.total == slow.total
    assert compiled.per_function == slow.per_function


class TestBenchSuite:
    @pytest.mark.parametrize("bench", all_programs(), ids=lambda b: b.name)
    @pytest.mark.parametrize("k", [3, 7])
    def test_bench_program(self, bench, k):
        prog = compile_source(bench.source(), filename=bench.filename)
        image = ssaspill_image(prog, k)
        assert_tiers_agree(image, bench.max_cycles)


class TestFuzzSeeds:
    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_seed(self, seed):
        prog = compile_source(random_source(seed, "small"))
        image = ssaspill_image(prog, 3)
        assert_tiers_agree(image, 3_000_000)


def _corpus_entries():
    corpus = load_corpus(CORPUS_DIR)
    return corpus, corpus.entries


class TestCorpus:
    corpus, entries = _corpus_entries()

    @pytest.mark.parametrize("entry", entries, ids=lambda e: e.file)
    def test_corpus_program(self, entry):
        with open(entry.path(self.corpus.directory)) as handle:
            prog = compile_source(handle.read())
        image = ssaspill_image(prog, 3)
        assert_tiers_agree(image, 3_000_000)
