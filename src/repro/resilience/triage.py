"""Crash triage: minimize a failing program and bundle a reproduction.

When the differential fuzzer finds a crash or a divergence, the raw
artifact is a few-hundred-line random Mini-C program and a seed — hostile
to debugging.  This module turns it into a self-contained *repro bundle*
under ``artifacts/``:

* ``repro.mc`` — the failing program, delta-minimized (lines removed while
  the same failure signature persists);
* ``original.mc`` — the unminimized program, for paranoia;
* ``bundle.json`` — machine-readable scenario: allocator, k, seed,
  failure kind/stage, expected vs actual output, divergence index, and
  the fault specs that were armed;
* ``README.md`` — the one CLI command that replays the failure.

Replaying is ``python -m repro replay artifacts/<bundle>``: it re-runs the
recorded scenario and reports whether the failure still reproduces (exit
0) or has disappeared (exit 1) — the latter is what a fixed bug looks
like.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from . import faults
from .errors import MiscompileError, StageError
from .pipeline import PassPipeline

#: Default bundle directory, relative to the current working directory.
ARTIFACTS_DIR = "artifacts"

#: Hard cap on predicate evaluations during minimization.
MINIMIZE_BUDGET = 400


# ---------------------------------------------------------------------------
# Failure probing (shared with the fuzz driver)
# ---------------------------------------------------------------------------


@dataclass
class Failure:
    """The observable signature of one failing scenario."""

    kind: str                    # "crash" | "miscompile"
    stage: str
    error: str
    function: Optional[str] = None
    divergence_index: Optional[int] = None
    expected: List = field(default_factory=list)
    actual: List = field(default_factory=list)

    def matches(self, other: "Failure") -> bool:
        """Same failure *signature*: kind and stage (the minimizer must
        not wander off to a different bug while shrinking)."""
        return self.kind == other.kind and self.stage == other.stage

    def signature(self) -> str:
        return failure_signature(self.kind, self.stage, self.function)


def failure_signature(
    kind: str, stage: str, function: Optional[str]
) -> str:
    """Stable dedup key for one *bug*, not one witness.

    A fuzz run that hits the same broken phase from fifty seeds produces
    fifty (seed, program) pairs but one (kind, stage, function) triple;
    hashing that triple collapses them into one bundle with a hit count.
    The generator seed is deliberately excluded — it identifies the
    witness, not the bug.
    """
    text = f"{kind}|{stage}|{function or ''}"
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def probe_failure(
    source: str,
    allocator: str,
    k: int,
    max_cycles: int = 3_000_000,
    seed: Optional[int] = None,
    inject: Optional[Sequence[faults.FaultSpec]] = None,
) -> Optional[Failure]:
    """Compile, allocate, run, and compare one scenario on the default
    pipeline.

    Returns the :class:`Failure` observed, or ``None`` when the scenario
    is healthy (including when the *reference* run itself cannot complete,
    which makes the program an invalid witness, not a compiler bug).

    ``inject`` arms fault probes for the duration of this one probe, with
    a *fresh* plan per call — so a ``times=1`` spec fires once per
    evaluation, keeping repeated probing (delta minimization, bundle
    replay) deterministic.
    """
    plan_cm = faults.injected(*inject) if inject else nullcontext()
    pipe = PassPipeline(seed=seed)
    try:
        prog = pipe.compile(source)
        reference = pipe.execute(prog.reference_image(), max_cycles=max_cycles)
    except StageError:
        return None

    try:
        with plan_cm:
            image, _ = pipe.allocate_program(prog, allocator, k)
            stats = pipe.execute(
                image, max_cycles=max_cycles, allocator=allocator, k=k
            )
            pipe.check_output(
                stats.output, reference.output, allocator=allocator, k=k
            )
    except MiscompileError as err:
        return Failure(
            kind="miscompile",
            stage=err.stage,
            error=str(err),
            divergence_index=err.divergence_index,
            expected=err.expected,
            actual=err.actual,
        )
    except StageError as err:
        return Failure(
            kind="crash",
            stage=err.stage,
            error=str(err),
            function=err.context.function,
        )
    return None


# ---------------------------------------------------------------------------
# Delta minimization
# ---------------------------------------------------------------------------


def minimize_source(
    source: str,
    still_fails: Callable[[str], bool],
    budget: int = MINIMIZE_BUDGET,
) -> str:
    """Line-based delta minimization.

    Repeatedly removes line chunks (halving the chunk size down to single
    lines) while ``still_fails`` keeps returning ``True``.  Candidates
    that fail to compile simply make the predicate return ``False`` and
    are rejected, so brace structure takes care of itself.  Bounded by
    ``budget`` predicate evaluations; minimization is best-effort.
    """
    lines = source.splitlines()
    evaluations = 0

    def check(candidate_lines: List[str]) -> bool:
        nonlocal evaluations
        if evaluations >= budget:
            return False
        evaluations += 1
        try:
            return still_fails("\n".join(candidate_lines))
        except Exception:
            return False

    if not check(lines):
        return source  # the input itself no longer fails: nothing to do

    chunk = max(1, len(lines) // 2)
    while chunk > 0:
        index = 0
        while index < len(lines) and evaluations < budget:
            candidate = lines[:index] + lines[index + chunk:]
            if candidate and check(candidate):
                lines = candidate
            else:
                index += chunk
        chunk //= 2
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


@dataclass
class TriageBundle:
    """Everything needed to replay one failure, self-contained.

    ``injected`` holds the fault specs that were armed (if any); replay
    re-arms them, so even a failure manufactured by the fault-injection
    layer reproduces from its bundle alone.
    """

    kind: str
    allocator: str
    k: int
    stage: str
    error: str
    source: str
    minimized: str
    seed: Optional[int] = None
    size: Optional[str] = None
    divergence_index: Optional[int] = None
    expected: List = field(default_factory=list)
    actual: List = field(default_factory=list)
    injected: List[Dict[str, Any]] = field(default_factory=list)
    #: failing function (from the stage context), part of the dedup key.
    function: Optional[str] = None
    #: how many scenarios hit this signature, and the seeds that did —
    #: maintained by :func:`write_bundle`'s merge-on-write.
    hits: int = 1
    seeds: List[int] = field(default_factory=list)

    def signature(self) -> str:
        return failure_signature(self.kind, self.stage, self.function)

    def bundle_id(self) -> str:
        return f"{self.kind}-{self.allocator}-k{self.k}-{self.signature()}"

    def replay_command(self, directory: str) -> str:
        return f"python -m repro replay {directory}"


def make_bundle(
    source: str,
    failure: Failure,
    allocator: str,
    k: int,
    seed: Optional[int] = None,
    size: Optional[str] = None,
    minimize: bool = True,
    inject: Optional[Sequence[faults.FaultSpec]] = None,
) -> TriageBundle:
    """Build a bundle from a confirmed failure, minimizing the source."""
    inject = list(inject or [])
    minimized = source
    if minimize:
        def still_fails(candidate: str) -> bool:
            observed = probe_failure(candidate, allocator, k, inject=inject)
            return observed is not None and observed.matches(failure)

        minimized = minimize_source(source, still_fails)
    return TriageBundle(
        kind=failure.kind,
        allocator=allocator,
        k=k,
        stage=failure.stage,
        error=failure.error,
        source=source,
        minimized=minimized,
        seed=seed,
        size=size,
        divergence_index=failure.divergence_index,
        expected=failure.expected,
        actual=failure.actual,
        injected=[asdict(spec) for spec in inject],
        function=failure.function,
        seeds=[] if seed is None else [seed],
    )


def write_bundle(bundle: TriageBundle, out_dir: str = ARTIFACTS_DIR) -> str:
    """Write the bundle directory; returns its path.

    Merge-on-write dedup: when a bundle with the same id (same failure
    signature, allocator, and k) already exists, the existing witness is
    kept — the first minimized repro is as good as the fiftieth — and
    only the hit count and seed list grow.
    """
    directory = os.path.join(out_dir, bundle.bundle_id())
    existing = None
    if os.path.exists(os.path.join(directory, "bundle.json")):
        try:
            existing = load_bundle(directory)
        except Exception:
            existing = None  # corrupt remnant: overwrite it
    if existing is not None and existing.signature() == bundle.signature():
        existing.hits += bundle.hits
        existing.seeds = sorted(set(existing.seeds) | set(bundle.seeds))
        bundle = existing
    os.makedirs(directory, exist_ok=True)

    with open(os.path.join(directory, "repro.mc"), "w") as handle:
        handle.write(bundle.minimized)
    with open(os.path.join(directory, "original.mc"), "w") as handle:
        handle.write(bundle.source)

    meta = asdict(bundle)
    meta.pop("source")
    meta.pop("minimized")
    meta["replay"] = bundle.replay_command(directory)
    with open(os.path.join(directory, "bundle.json"), "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")

    readme = [
        f"# Repro bundle: {bundle.bundle_id()}",
        "",
        f"* kind: **{bundle.kind}** at stage `{bundle.stage}`"
        + (f" in `{bundle.function}`" if bundle.function else ""),
        f"* allocator: `{bundle.allocator}`, k={bundle.k}"
        + (f", generator seed {bundle.seed}" if bundle.seed is not None else ""),
        f"* error: {bundle.error}",
        f"* signature: `{bundle.signature()}`, hit {bundle.hits} time(s)"
        + (f" by seeds {bundle.seeds}" if bundle.seeds else ""),
    ]
    if bundle.divergence_index is not None:
        readme.append(
            f"* first output divergence at index {bundle.divergence_index}"
        )
    readme += [
        "",
        "Replay with:",
        "",
        "```",
        bundle.replay_command(directory),
        "```",
        "",
        "`repro.mc` is the delta-minimized witness; `original.mc` is the",
        "program as originally generated.",
        "",
    ]
    with open(os.path.join(directory, "README.md"), "w") as handle:
        handle.write("\n".join(readme))
    return directory


def load_bundle(directory: str) -> TriageBundle:
    """Read a bundle directory.  Keys a :class:`TriageBundle` no longer
    has (an older build's ``config`` and ``granularity``, say) are
    dropped, so a bundle written before a field was deleted still
    replays."""
    with open(os.path.join(directory, "bundle.json")) as handle:
        meta = json.load(handle)
    with open(os.path.join(directory, "repro.mc")) as handle:
        minimized = handle.read()
    original_path = os.path.join(directory, "original.mc")
    source = minimized
    if os.path.exists(original_path):
        with open(original_path) as handle:
            source = handle.read()
    known = {f.name for f in fields(TriageBundle)}
    meta = {key: value for key, value in meta.items() if key in known}
    meta.update(source=source, minimized=minimized)
    return TriageBundle(**meta)


@dataclass
class ReplayResult:
    """Outcome of re-running a bundle's scenario."""

    reproduced: bool
    recorded: TriageBundle
    observed: Optional[Failure]

    def describe(self) -> str:
        if self.observed is None:
            return (
                f"{self.recorded.bundle_id()}: does NOT reproduce "
                f"(recorded {self.recorded.kind} at {self.recorded.stage})"
            )
        verdict = "reproduces" if self.reproduced else "fails differently"
        return (
            f"{self.recorded.bundle_id()}: {verdict} — observed "
            f"{self.observed.kind} at {self.observed.stage}: "
            f"{self.observed.error}"
        )


def replay_bundle(directory: str) -> ReplayResult:
    """Re-run a bundle's minimized witness under its recorded scenario,
    re-arming any recorded fault specs."""
    bundle = load_bundle(directory)
    inject = [faults.FaultSpec(**spec) for spec in bundle.injected]
    observed = probe_failure(
        bundle.minimized, bundle.allocator, bundle.k, inject=inject
    )
    recorded_signature = Failure(
        kind=bundle.kind, stage=bundle.stage, error=bundle.error
    )
    reproduced = observed is not None and observed.matches(recorded_signature)
    return ReplayResult(reproduced, bundle, observed)
