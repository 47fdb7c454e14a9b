"""Fuzz corpus management: keep the seeds that earn their keep.

Random fuzzing rediscovers interesting programs from scratch every run;
most generator seeds exercise nothing beyond the happy path.  This module
maintains a small committed corpus under ``tests/corpus/`` of Mini-C
programs chosen because they drive the pipeline through its risky
machinery — GRA spilling, RAP spilling, spill-code motion (and therefore
the motion validator), and the Figure-6 peephole (and therefore the
peephole validator).  ``python -m repro fuzz`` replays the corpus ahead
of the random seed range, so every fuzz run — local or CI — starts with
known-interesting inputs instead of hoping the RNG finds them again.

The corpus is greedy-minimal: a seed is persisted only when it covers a
feature no existing entry covers.  ``MANIFEST.json`` records, per entry,
the generator seed, size, and feature set, so coverage is inspectable
without running anything.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Set

from .pipeline import PassPipeline

#: Default committed corpus location, relative to the repository root.
DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")

MANIFEST = "MANIFEST.json"

#: The feature axes the corpus tries to cover.  Motion and peephole
#: features double as validator coverage: every replayed program with
#: them runs the corresponding independent validator on real output.
#:
#: ``linearscan.spill`` and ``ssaspill.spill`` keep seeds that make the
#: ladder's lower rungs spill (so fuzz runs exercise the interval
#: machinery and the SSA spill-everywhere lowering, not just their happy
#: paths).  The ``error.*`` axes keep seeds that can *trigger* each
#: transformation validator's error path: under the matching armed fault
#: probe the program provably raises MotionValidationError /
#: ScheduleValidationError / PeepholeValidationError /
#: DestructValidationError — which is the only way corpus minimization
#: can preserve witnesses for those code paths (a seed with hoists but
#: no write-back, say, covers ``rap.motion`` yet can never reach the
#: drop-store error branch; a seed with no permutation cycle in any
#: parallel copy can never reach the lost-copy branch).
FEATURES = (
    "gra.spill",
    "rap.spill",
    "rap.motion",
    "rap.peephole",
    "linearscan.spill",
    "ssaspill.spill",
    "error.motion",
    "error.schedule",
    "error.peephole",
    "error.ssa-destruct",
)

#: feature -> (probe point, error class name, allocator, schedule stage
#: on?) for the validator-error axes: the probe is armed, allocation
#: re-run on the named allocator, and the feature granted iff the named
#: error class is raised.
ERROR_AXES = (
    (
        "error.motion",
        "rap.motion.drop-store",
        "MotionValidationError",
        "rap",
        False,
    ),
    (
        "error.schedule",
        "sched.reorder-dependent",
        "ScheduleValidationError",
        "rap",
        True,
    ),
    (
        "error.peephole",
        "rap.peephole.stale-holder",
        "PeepholeValidationError",
        "rap",
        False,
    ),
    (
        "error.ssa-destruct",
        "ssa.destruct.lost-copy",
        "DestructValidationError",
        "ssaspill",
        False,
    ),
)


@dataclass
class CorpusEntry:
    """One persisted program and why it is in the corpus."""

    seed: int
    size: str
    features: List[str]
    file: str

    def path(self, directory: str) -> str:
        return os.path.join(directory, self.file)


@dataclass
class Corpus:
    """The committed corpus: entries plus the features they cover."""

    directory: str
    entries: List[CorpusEntry] = field(default_factory=list)

    def covered(self) -> Set[str]:
        return {f for entry in self.entries for f in entry.features}

    def sources(self) -> List[str]:
        out = []
        for entry in self.entries:
            with open(entry.path(self.directory)) as handle:
                out.append(handle.read())
        return out


def program_features(source: str, k: int = 3) -> Set[str]:
    """Which risky paths does this program drive at register count ``k``?

    Runs GRA, linear-scan, SSA and RAP allocation (no execution) and reads
    the telemetry: spill lists, hoist certificates, peephole rewrite
    counts.  The validator-error axes re-run RAP under each armed fault
    probe and record whether the matching ``*ValidationError`` fires.  A
    program that fails to compile or allocate has no features — the
    corpus keeps *interesting* programs, not broken ones (those belong
    in triage bundles).
    """
    from .errors import StageError

    features: Set[str] = set()
    try:
        pipe = PassPipeline()
        prog = pipe.compile(source)
        for allocator in ("gra", "linearscan", "ssaspill", "rap"):
            _, results = pipe.allocate_program(prog, allocator, k)
            if any(result.spilled for result in results.values()):
                features.add(f"{allocator}.spill")
        # ``results`` are RAP's now: read its motion and peephole telemetry.
        if any(getattr(r.motion, "hoists", []) for r in results.values()):
            features.add("rap.motion")
        if any(r.peephole.total for r in results.values()):
            features.add("rap.peephole")
    except StageError:
        return set()
    features |= _error_path_features(pipe, prog, k)
    return features


def _error_path_features(pipe: PassPipeline, prog, k: int) -> Set[str]:
    """The ``error.*`` axes: can this program trigger each transformation
    validator's error path?

    Arms the matching corruption probe (``times=None`` so every
    opportunity fires), re-runs RAP allocation, and grants the feature
    iff the validator's own error class escapes (the ssaspill validators
    run before the generic assignment recheck, so a corrupted copy
    window reaches the destruction validator).  Any other failure —
    including a probe that found nothing to corrupt — yields nothing;
    the probes are restored to their prior plan on exit, so feature
    scanning composes with an outer fuzz run's own injection.
    """
    from . import errors, faults
    from .errors import StageError

    found: Set[str] = set()
    for feature, point, error_name, allocator, schedule in ERROR_AXES:
        if schedule and not _scheduler_moves_something(prog, k):
            # The swap probe fires in any block with a dependent adjacent
            # pair — near-universal.  Requiring a non-trivially scheduled
            # program keeps the axis discriminating: the corpus wants a
            # seed whose *real* schedule the validator defends, not any
            # straight-line print.
            continue
        error_cls = getattr(errors, error_name)
        with faults.injected(faults.FaultSpec(point, times=None)):
            try:
                pipe.allocate_program(prog, allocator, k, schedule=schedule)
            except error_cls:
                found.add(feature)
            except StageError:
                pass
    return found


def _scheduler_moves_something(prog, k: int) -> bool:
    """True when the list scheduler reorders at least one instruction of
    the RAP-allocated program (measured on a clean, un-probed run)."""
    from .telemetry import MetricsCollector

    collector = MetricsCollector()
    probe = PassPipeline(metrics=collector)
    probe.allocate_program(prog, "rap", k, schedule=True)
    schedule = collector.stages.get("schedule")
    return schedule is not None and schedule.sched_moved > 0


def load_corpus(directory: str = DEFAULT_CORPUS_DIR) -> Corpus:
    """Load the manifest; an absent corpus is simply empty."""
    manifest = os.path.join(directory, MANIFEST)
    corpus = Corpus(directory)
    if not os.path.exists(manifest):
        return corpus
    with open(manifest) as handle:
        data = json.load(handle)
    for item in data.get("entries", []):
        entry = CorpusEntry(**item)
        if os.path.exists(entry.path(directory)):
            corpus.entries.append(entry)
    return corpus


def save_corpus(corpus: Corpus) -> None:
    os.makedirs(corpus.directory, exist_ok=True)
    data = {
        "entries": [asdict(entry) for entry in corpus.entries],
        "features": sorted(corpus.covered()),
    }
    with open(os.path.join(corpus.directory, MANIFEST), "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def consider(
    corpus: Corpus,
    seed: int,
    size: str,
    source: str,
    features: Optional[Set[str]] = None,
) -> Optional[CorpusEntry]:
    """Add ``source`` to the corpus iff it covers a new feature.

    Returns the new entry, or ``None`` when the corpus already covers
    everything this program exercises.  The caller persists with
    :func:`save_corpus` (so a sweep batches one manifest write).
    """
    if features is None:
        features = program_features(source)
    fresh = features - corpus.covered()
    if not fresh:
        return None
    entry = CorpusEntry(
        seed=seed,
        size=size,
        features=sorted(features),
        # Size-qualified name for non-small entries, so one generator
        # seed can contribute at several sizes without a collision.
        file=f"seed{seed}.mc" if size == "small" else f"seed{seed}.{size}.mc",
    )
    os.makedirs(corpus.directory, exist_ok=True)
    with open(entry.path(corpus.directory), "w") as handle:
        handle.write(source)
    corpus.entries.append(entry)
    return entry


def seed_corpus(
    directory: str = DEFAULT_CORPUS_DIR,
    seeds: Sequence[int] = range(25),
    sizes: Sequence[str] = ("small", "medium"),
) -> Corpus:
    """Build (or extend) a corpus by scanning generator seeds greedily.

    Scans ``sizes`` in order (small first, so the corpus stays minimal in
    bytes), walking ``seeds`` within each size, and stops as soon as
    every :data:`FEATURES` axis is covered.  Some axes — notably
    ``error.motion``, which needs a loop-carried spill value *written
    back* after the loop — simply never occur in small generated
    programs, which is why the scan escalates size instead of walking
    the seed range forever.
    """
    from ..testing.generator import random_source

    corpus = load_corpus(directory)
    for size in sizes:
        for seed in seeds:
            if corpus.covered() >= set(FEATURES):
                break
            source = random_source(seed, size)
            consider(corpus, seed, size, source)
    save_corpus(corpus)
    return corpus
