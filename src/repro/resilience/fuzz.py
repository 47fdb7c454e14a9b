"""The differential fuzz driver (``python -m repro fuzz``).

Runs Mini-C programs through the full resilient pipeline — reference
execution vs every (allocator, k) scenario — and, instead of dying on the
first divergence, triages it: the failing program is delta-minimized and
written to ``artifacts/`` as a repro bundle, then the sweep continues.
The exit status reports whether any scenario failed, which is exactly
what CI wants: a red build *with* the witness attached.

Two refinements over naive seed-sweeping:

* **Corpus replay** — programs persisted under ``tests/corpus/`` (seeds
  known to drive spilling, spill-code motion, and the peephole — see
  :mod:`.corpus`) run *before* the random seed range, so every fuzz run
  starts with known-interesting inputs.  ``update_corpus=True`` makes the
  run persist any new seed that covers a feature the corpus lacks.
* **Signature dedup** — failures are keyed by (kind, stage, function);
  repeat hits of a known signature skip re-minimization: the first
  bundle is written again through :func:`~.triage.write_bundle`, whose
  merge-on-write keeps its witness and adds the hit and the seed,
  instead of writing fifty copies of the same bug.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from ..testing.generator import random_source
from . import corpus as corpus_mod
from .faults import FaultSpec
from .triage import Failure, TriageBundle, make_bundle, probe_failure, write_bundle

DEFAULT_K_VALUES = (3, 5)
DEFAULT_ALLOCATORS = ("gra", "rap", "ssaspill")


@dataclass
class FuzzFailure:
    """One failing (seed, allocator, k) scenario and its bundle."""

    seed: Optional[int]
    allocator: str
    k: int
    failure: Failure
    bundle_path: Optional[str] = None
    #: a previously-seen signature: merged into an existing bundle
    #: instead of minimized into a fresh one.
    duplicate: bool = False


@dataclass
class FuzzReport:
    """Summary of one fuzz run."""

    seeds: List[int] = field(default_factory=list)
    corpus_entries: int = 0
    scenarios: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def distinct_signatures(self) -> int:
        return len({f.failure.signature() for f in self.failures})


def run_fuzz(
    seeds: int = 25,
    start: int = 0,
    size: str = "small",
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    allocators: Sequence[str] = DEFAULT_ALLOCATORS,
    out_dir: str = "artifacts",
    max_cycles: int = 3_000_000,
    minimize: bool = True,
    stream: Optional[TextIO] = None,
    inject: Optional[Sequence[FaultSpec]] = None,
    corpus_dir: Optional[str] = corpus_mod.DEFAULT_CORPUS_DIR,
    use_corpus: bool = True,
    update_corpus: bool = False,
) -> FuzzReport:
    """Fuzz the corpus (if any), then ``seeds`` consecutive generator
    seeds starting at ``start``.

    Every failure is triaged into a bundle under ``out_dir``; duplicate
    signatures merge into their existing bundle.  The sweep never aborts.
    ``inject`` arms fault probes for every scenario (fresh plan per
    probe) — the way to exercise the triage machinery on a healthy
    compiler.
    """
    stream = stream or sys.stdout
    report = FuzzReport()
    #: signature -> (first bundle, its path), for merge-instead-of-minimize.
    seen: Dict[str, Tuple[TriageBundle, str]] = {}

    def run_one(source: str, seed: Optional[int], label: str) -> None:
        for allocator in allocators:
            for k in k_values:
                report.scenarios += 1
                failure = probe_failure(
                    source,
                    allocator,
                    k,
                    max_cycles=max_cycles,
                    seed=seed,
                    inject=inject,
                )
                if failure is None:
                    continue
                signature = failure.signature()
                print(
                    f"FAIL {label} {allocator} k={k}: "
                    f"{failure.kind} at {failure.stage} [{signature}]",
                    file=stream,
                )
                if signature in seen:
                    first, path = seen[signature]
                    hit = replace(
                        first, hits=1, seeds=[] if seed is None else [seed]
                    )
                    write_bundle(hit, out_dir)
                    print(f"  duplicate of: {path}", file=stream)
                    report.failures.append(
                        FuzzFailure(
                            seed, allocator, k, failure, path, duplicate=True
                        )
                    )
                    continue
                bundle = make_bundle(
                    source,
                    failure,
                    allocator,
                    k,
                    seed=seed,
                    size=size,
                    minimize=minimize,
                    inject=inject,
                )
                path = write_bundle(bundle, out_dir)
                seen[signature] = (bundle, path)
                print(f"  bundle: {path}", file=stream)
                report.failures.append(
                    FuzzFailure(seed, allocator, k, failure, path)
                )

    corpus = None
    if use_corpus and corpus_dir is not None:
        corpus = corpus_mod.load_corpus(corpus_dir)
        for entry in corpus.entries:
            report.corpus_entries += 1
            with open(entry.path(corpus.directory)) as handle:
                source = handle.read()
            run_one(source, entry.seed, f"corpus:{entry.file}")

    corpus_grew = False
    for seed in range(start, start + seeds):
        report.seeds.append(seed)
        source = random_source(seed, size)
        run_one(source, seed, f"seed={seed}")
        if update_corpus and corpus is not None:
            added = corpus_mod.consider(corpus, seed, size, source)
            if added is not None:
                corpus_grew = True
                print(
                    f"corpus: persisted seed {seed} "
                    f"(features {', '.join(added.features)})",
                    file=stream,
                )
    if corpus_grew:
        corpus_mod.save_corpus(corpus)

    distinct = report.distinct_signatures()
    verdict = (
        "ok"
        if report.ok
        else f"{len(report.failures)} FAILURES ({distinct} distinct)"
    )
    corpus_part = (
        f"{report.corpus_entries} corpus + " if report.corpus_entries else ""
    )
    print(
        f"fuzz: {corpus_part}{len(report.seeds)} seeds x "
        f"{len(list(allocators))} allocators x "
        f"{len(list(k_values))} k-values = {report.scenarios} scenarios: "
        f"{verdict}",
        file=stream,
    )
    return report
