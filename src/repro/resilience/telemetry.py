"""Per-stage telemetry for the resilient pipeline.

A :class:`MetricsCollector` attached to a
:class:`~repro.resilience.pipeline.PassPipeline` receives, for every
stage execution, the wall time spent inside the stage — and, for the
allocate stage, the allocator's own counters (build/spill rounds,
distinct spilled registers, peephole rewrites) taken from the
:meth:`~repro.regalloc.chaitin.AllocationResult.telemetry` accessor.
The collector aggregates per stage into :class:`StageMetrics` records.

``repro run --profile`` renders one program's records with
:func:`render_profile`, and the compile service returns them with every
response and in ``stats``.  The benchmark harness creates one collector
per ``(program, allocator, k)`` cell and threads the resulting stage map
through :class:`~repro.bench.harness.ProgramRun`, so the ``table1
--schedule`` footer can aggregate across cells with :func:`aggregate` —
including cells measured in worker processes, since every record here
is a plain picklable dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

#: Canonical display order; mirrors ``pipeline.STAGES`` (which this module
#: cannot import without a cycle) plus the output-comparison stage.
STAGE_ORDER = (
    "parse",
    "sema",
    "pdg-build",
    "allocate",
    "validate",
    "schedule",
    "decode",
    "pycompile",
    "execute",
    "compare",
)


@dataclass
class StageMetrics:
    """Aggregated counters for one pipeline stage.

    ``rounds``, ``spills``, ``peephole_hits``, and ``analysis_builds``
    are only ever non-zero for the allocate stage; they are carried on
    every record so one shape serves the whole profile table.  The
    ``decode`` stage's wall time is a *subset* of the execute stage's
    (pre-decoding happens inside the machine's first dispatch of each
    function image), broken out so sweeps can see how little of the run
    is spent decoding versus executing.
    """

    stage: str
    wall_time: float = 0.0
    calls: int = 0
    rounds: int = 0
    spills: int = 0
    peephole_hits: int = 0
    analysis_builds: int = 0
    #: schedule-stage quality numbers (zero everywhere else): blocks
    #: scheduled, instructions moved, and the summed static block length
    #: (in-order single-issue completion cycles under the latency model)
    #: before and after list scheduling.  The before/after delta is the
    #: ``table1 --schedule`` footer's payload.
    sched_blocks: int = 0
    sched_moved: int = 0
    sched_length_before: int = 0
    sched_length_after: int = 0
    #: execute-stage tier census (zero everywhere else): how many runs
    #: this record aggregates per effective interpreter tier
    #: (``slow`` / ``compiled``), e.g. ``{"compiled": 80}``
    #: for a sweep that stayed on the compiled tier throughout.
    tiers: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "StageMetrics") -> None:
        self.wall_time += other.wall_time
        self.calls += other.calls
        self.rounds += other.rounds
        self.spills += other.spills
        self.peephole_hits += other.peephole_hits
        self.analysis_builds += other.analysis_builds
        self.sched_blocks += other.sched_blocks
        self.sched_moved += other.sched_moved
        self.sched_length_before += other.sched_length_before
        self.sched_length_after += other.sched_length_after
        for tier, count in other.tiers.items():
            self.tiers[tier] = self.tiers.get(tier, 0) + count

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "wall_time_s": round(self.wall_time, 6),
            "calls": self.calls,
            "rounds": self.rounds,
            "spills": self.spills,
            "peephole_hits": self.peephole_hits,
            "analysis_builds": self.analysis_builds,
        }
        if self.sched_blocks:
            out["sched_blocks"] = self.sched_blocks
            out["sched_moved"] = self.sched_moved
            out["sched_length_before"] = self.sched_length_before
            out["sched_length_after"] = self.sched_length_after
        if self.tiers:
            out["tiers"] = dict(sorted(self.tiers.items()))
        return out


class MetricsCollector:
    """Receives stage timings and allocation counters from a pipeline."""

    def __init__(self) -> None:
        self.stages: Dict[str, StageMetrics] = {}

    def stage(self, name: str) -> StageMetrics:
        metrics = self.stages.get(name)
        if metrics is None:
            metrics = self.stages[name] = StageMetrics(name)
        return metrics

    def record_duration(self, stage: str, seconds: float) -> None:
        metrics = self.stage(stage)
        metrics.wall_time += seconds
        metrics.calls += 1

    def record_allocation(self, result) -> None:
        """Fold one ``AllocationResult``'s counters into the allocate
        stage (``result.telemetry()`` — rounds, spills, peephole hits)."""
        metrics = self.stage("allocate")
        counters = result.telemetry()
        metrics.rounds += counters.get("rounds", 0)
        metrics.spills += counters.get("spills", 0)
        metrics.peephole_hits += counters.get("peephole_hits", 0)
        metrics.analysis_builds += counters.get("analysis_builds", 0)

    def record_execute_tier(self, tier: str) -> None:
        """Count one execute-stage run against its effective interpreter
        tier (what :meth:`~repro.interp.machine.Machine.interp_tier`
        resolved to — a run demoted to ``slow`` by a tracer or an armed
        fault plan is counted as ``slow``, not as the requested tier)."""
        metrics = self.stage("execute")
        metrics.tiers[tier] = metrics.tiers.get(tier, 0) + 1

    def record_schedule(self, report) -> None:
        """Fold one function's
        :class:`~repro.sched.list_scheduler.ScheduleReport` into the
        schedule stage's quality counters."""
        metrics = self.stage("schedule")
        metrics.sched_blocks += report.blocks
        metrics.sched_moved += report.moved_instructions
        metrics.sched_length_before += report.length_before
        metrics.sched_length_after += report.length_after

    def merge(self, stages: Mapping[str, StageMetrics]) -> None:
        for name, metrics in stages.items():
            self.stage(name).merge(metrics)

    def ordered(self) -> Iterable[StageMetrics]:
        """Stage records in canonical pipeline order (then alphabetic)."""
        known = [s for s in STAGE_ORDER if s in self.stages]
        extra = sorted(set(self.stages) - set(STAGE_ORDER))
        return [self.stages[name] for name in known + extra]

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {m.stage: m.as_dict() for m in self.ordered()}


def aggregate(stage_maps: Iterable[Mapping[str, StageMetrics]]) -> MetricsCollector:
    """Fold many per-run stage maps (e.g. from every ``ProgramRun`` of a
    sweep, serial or parallel) into one collector."""
    total = MetricsCollector()
    for stages in stage_maps:
        total.merge(stages)
    return total


def render_profile(
    collector: MetricsCollector, stream, title: Optional[str] = None
) -> None:
    """The ``--profile`` table: per-stage wall time, calls, rounds,
    spill counts, peephole hits, and analysis rebuilds."""
    if title:
        print(f"\n{title}", file=stream)
    header = (
        f"{'stage':<10} {'wall(s)':>9} {'calls':>7} {'rounds':>7} "
        f"{'spills':>7} {'peephole':>9} {'rebuilds':>9}"
    )
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for m in collector.ordered():
        print(
            f"{m.stage:<10} {m.wall_time:>9.3f} {m.calls:>7} {m.rounds:>7} "
            f"{m.spills:>7} {m.peephole_hits:>9} {m.analysis_builds:>9}",
            file=stream,
        )
