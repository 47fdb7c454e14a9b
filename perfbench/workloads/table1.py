"""``table1``: the paper's experiment, the full serial Table-1 sweep.

10 programs x k in {3,5,7,9} x {gra, rap, ssaspill} = 120 cells, each
through ``repro.bench.harness.build_table1`` with a fresh ``Harness``.
The rendered text must be byte-identical to ``results_table1.txt``.
The interpreter does most of the work; the frontend parses 10 programs.
The suite is fixed, so the seed does not change the inputs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from statistics import median
from typing import List, Optional, Sequence, Tuple

from ..common import ROOT, Outcome, Report, after_first_pass_rss, timed_passes
from ..tracing import Tracer, install_layer_wrappers
from . import shared

EXPECTED = ROOT / "results_table1.txt"


@dataclass(frozen=True)
class SweepPass:
    """What one timed sweep leaves for the checks and the figures."""

    took: float
    text: str
    #: per-cell wall time (ms), in the sweep's fixed cell order
    cell_ms: List[float]
    #: cells that walked the fallback ladder, and rungs abandoned
    degraded: int
    fallbacks: int
    rap_gain_pct: float
    ssa_gain_pct: float


def setup(seed: int) -> str:
    """Import the harness and load the reference text."""
    from repro.bench import harness, table1  # noqa: F401  (import cost is set-up)
    from repro.bench.suite import PROGRAMS

    for bench in PROGRAMS:
        bench.source()
    return EXPECTED.read_text()


def sweep(programs: Optional[Sequence] = None) -> Tuple[str, list, object]:
    """One Table-1 sweep with a fresh harness: (text, cell runs, table).
    ``programs`` restricts the suite (tests use a small subset).

    The interpreter keeps its translations in a process-wide cache, and
    a whole sweep fits in it.  It is emptied first, so every sweep
    translates what a sweep in a fresh process translates.
    """
    from repro.bench.harness import Harness, build_table1
    from repro.bench.table1 import render_table1
    from repro.interp import pycompile

    pycompile._ARTIFACTS.clear()
    runs: List = []
    table = build_table1(Harness(programs), runs_out=runs)
    text = io.StringIO()
    render_table1(table, stream=text)
    return text.getvalue(), runs, table


def _summary(took: float, result: Tuple[str, list, object]) -> SweepPass:
    text, runs, table = result
    return SweepPass(
        took,
        text,
        [run.wall_time * 1000.0 for run in runs],
        sum(1 for run in runs if run.fallbacks_taken),
        sum(len(run.fallbacks_taken) for run in runs),
        table.overall_average(),
        table.ssa_overall_average(),
    )


def measure(seconds: float) -> Tuple[List[SweepPass], float]:
    """Timed sweeps in this process: (passes, peak RSS in MB after the
    first).  Each sweep is reduced to its summary as soon as it ends."""
    one_pass, rss = after_first_pass_rss(lambda: _summary(0.0, sweep()))
    passes = [replace(p, took=took) for took, p in timed_passes(seconds, one_pass)]
    return passes, rss[0]


def _check(outcome: Outcome, passes: Sequence[SweepPass], expected: str) -> None:
    for sweep_pass in passes:
        outcome.attempted += len(sweep_pass.cell_ms)
        outcome.degraded += sweep_pass.degraded
        if sweep_pass.text != expected:
            outcome.violation("table1 text differs from results_table1.txt")


def _named(passes: Sequence[SweepPass]) -> Report:
    report = Report()
    report.add("sweep_s", median([p.took for p in passes]), "s")
    report.add("rap_gain_pct", passes[-1].rap_gain_pct, "%")
    report.add("ssa_gain_pct", passes[-1].ssa_gain_pct, "%")
    return report


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    expected = setup(seed)
    setup_s = shared.child_setup_seconds("table1", seed)
    outcome = Outcome()
    if not trace:
        passes, rss = measure(seconds)
        _check(outcome, passes, expected)
        outcome.report.extend(_named(passes))
        shared.end_to_end(outcome, [(p.cell_ms, p.took) for p in passes], setup_s, rss)
        return outcome

    plain = [_summary(*p) for p in timed_passes(seconds / 2, sweep)]
    with Tracer() as tracer:
        install_layer_wrappers(tracer)
        traced = [_summary(*p) for p in timed_passes(seconds / 2, sweep)]
    _check(outcome, plain + traced, expected)
    if traced[0].text != plain[0].text:
        outcome.violation("table1 text under tracing differs from untraced text")
    shared.write_trace(tracer, "table1", seed)
    cells = sum(len(p.cell_ms) for p in traced)
    shared.per_layer(
        outcome,
        tracer,
        passes=len(traced),
        fallback_frac=sum(p.fallbacks for p in traced) / cells,
        overhead_pct=shared.overhead_pct([p.took for p in plain], [p.took for p in traced]),
    )
    return outcome
