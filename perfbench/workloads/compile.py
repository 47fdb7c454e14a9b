"""``compile``: the service worker's cold path, in-process, execute off.

``repro.service.server.compile_cold`` for every ladder rung (rap, gra,
ssaspill, linearscan, spillall) at k in {3,5,8}, over the registered
programs plus seeded generated ones (``random_source(seed+i, "large")``
for i = 0, 1, ..., keeping those of 100-400 static instructions until
they add up to 800, see ``inputs.generated_programs``).
Allocators and validators do nearly all the work and the interpreter
none, so this is the no-change control for interpreter changes.

Checks: the registered programs' image digests fold into one digest
that must equal ``compile_digest.json``; every generated image must be
the same in every pass and, run once after timing, print what the
reference execution printed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from statistics import median

from ..common import Outcome, after_first_pass_rss, timed_passes
from ..tracing import ALLOCATORS, Tracer, install_layer_wrappers
from . import shared
from .inputs import Program, generated_programs, registered_programs

K_VALUES = (3, 5, 8)
#: generated programs: static instruction-count band and total budget
GENERATED_SIZE = (100, 400)
GENERATED_BUDGET = 800
DIGEST_FILE = Path(__file__).resolve().parents[1] / "compile_digest.json"


@dataclass
class Inputs:
    registered: List[Program]
    generated: List[Program]
    excluded: List[str] = field(default_factory=list)


@dataclass
class Compiled:
    """One compile_cold call's result, or the error it raised."""

    program: str
    rung: str
    k: int
    ms: float
    sha256: str = ""
    used: str = ""
    fallbacks: int = 0
    blob: bytes = b""
    error: str = ""


def setup(seed: int) -> Inputs:
    import repro.service.server  # noqa: F401  (import cost is set-up)

    screened = generated_programs(seed, "large", GENERATED_SIZE, GENERATED_BUDGET)
    return Inputs(registered_programs(), screened.programs, screened.excluded)


def _compile_all(programs: Sequence[Program]) -> List[Compiled]:
    from repro.resilience.errors import StageError
    from repro.resilience.pipeline import PassPipeline, PipelineConfig
    from repro.service.server import compile_cold

    pipeline = PassPipeline(PipelineConfig())
    out: List[Compiled] = []
    for program in programs:
        for rung in ALLOCATORS:
            for k in K_VALUES:
                spec = {
                    "source": program.source,
                    "rung": rung,
                    "k": k,
                    "schedule": False,
                    "execute": False,
                    "entry": "main",
                    "max_cycles": None,
                    "filename": program.label,
                    "allocator_requested": rung,
                    "chaos": None,
                }
                started = time.perf_counter()
                try:
                    body = compile_cold(pipeline, spec)
                except StageError as err:
                    took = time.perf_counter() - started
                    out.append(Compiled(program.label, rung, k, took * 1000, error=str(err)))
                    continue
                took = time.perf_counter() - started
                out.append(
                    Compiled(
                        program.label,
                        rung,
                        k,
                        took * 1000.0,
                        sha256=body["image_sha256"],
                        used=body["allocator_used"],
                        fallbacks=len(body["fallbacks"]),
                        blob=body["_blob"],
                    )
                )
    return out


def fold_digest(results: Sequence[Compiled]) -> str:
    """One sha256 over every (program, rung, k, image sha256), in order."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(
            f"{result.program}|{result.rung}|{result.k}|{result.sha256}\n".encode()
        )
    return digest.hexdigest()


def committed_digest() -> str:
    return json.loads(DIGEST_FILE.read_text())["registered"]


def _verify_generated(outcome: Outcome, results: Sequence[Compiled], inputs: Inputs) -> None:
    """Run each generated image once; its output must match the reference."""
    from repro.interp.machine import run_program
    from repro.interp.serialize import loads_image
    from repro.testing.compare import outputs_equal

    expected = {program.label: program.expected for program in inputs.generated}
    for result in results:
        if result.program not in expected or result.error:
            continue
        output = run_program(loads_image(result.blob)).output
        if not outputs_equal(output, expected[result.program]):
            outcome.violation(
                f"{result.program} {result.rung} k={result.k}: output differs from reference"
            )


def measure(programs: Sequence[Program], seconds: float) -> Tuple[list, float]:
    """Timed passes in this process: ([(seconds, results)], peak RSS in
    MB after the first pass)."""
    one_pass, rss = after_first_pass_rss(lambda: _compile_all(programs))
    return timed_passes(seconds, one_pass), rss[0]


def _check(outcome: Outcome, passes, inputs: Inputs) -> None:
    """Count and check every compile of every pass."""
    registered = {program.label for program in inputs.registered}
    first: Dict[Tuple[str, str, int], str] = {}
    want = committed_digest()
    for _took, results in passes:
        outcome.attempted += len(results)
        for result in results:
            if result.error:
                outcome.failed += 1
                continue
            outcome.degraded += result.used != result.rung
            key = (result.program, result.rung, result.k)
            if first.setdefault(key, result.sha256) != result.sha256:
                outcome.violation(f"{key}: image differs between passes")
        got = fold_digest([r for r in results if r.program in registered])
        if got != want:
            outcome.violation(f"registered-program digest {got} != committed {want}")


def _note_inputs(outcome: Outcome, inputs: Inputs) -> None:
    outcome.report.add("programs_registered", len(inputs.registered), "count")
    outcome.report.add("programs_generated", len(inputs.generated), "count")
    for excluded in inputs.excluded:
        outcome.report.note(f"screened out generator seed {excluded}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = setup(seed)
    setup_s = shared.child_setup_seconds("compile", seed)
    programs = inputs.registered + inputs.generated
    outcome = Outcome()
    _note_inputs(outcome, inputs)

    def one_pass() -> List[Compiled]:
        return _compile_all(programs)

    if not trace:
        passes, rss = measure(programs, seconds)
        _check(outcome, passes, inputs)
        _verify_generated(outcome, passes[-1][1], inputs)
        outcome.report.add("compile_s", median([took for took, _ in passes]), "s")
        shared.end_to_end(
            outcome,
            [([r.ms for r in results], took) for took, results in passes],
            setup_s,
            rss,
        )
        return outcome

    plain = timed_passes(seconds / 2, one_pass)
    with Tracer() as tracer:
        install_layer_wrappers(tracer)
        traced = timed_passes(seconds / 2, one_pass)
    _check(outcome, plain + traced, inputs)
    _verify_generated(outcome, traced[-1][1], inputs)
    shared.write_trace(tracer, "compile", seed)
    results = [r for _, pass_results in traced for r in pass_results]
    shared.per_layer(
        outcome,
        tracer,
        passes=len(traced),
        fallback_frac=sum(r.fallbacks for r in results) / len(results),
        overhead_pct=shared.overhead_pct(
            [took for took, _ in plain], [took for took, _ in traced]
        ),
    )
    return outcome


if __name__ == "__main__":
    # Print the registered-program digest of the current sources, for
    # refreshing compile_digest.json after an intended allocator change.
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    print(fold_digest(_compile_all(registered_programs())))
