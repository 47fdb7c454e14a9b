"""Measurement harness: compile, allocate, run, and compare the
allocators.

This module regenerates the paper's Table 1.  For each benchmark program,
each register-set size k, and each allocator it:

1. compiles the Mini-C source to a PDG module (cached per program);
2. allocates every function (GRA and the SSA spill-then-color allocator
   on the cloned linear code, RAP on a fresh copy of the PDG) through the
   :class:`~repro.resilience.pipeline.PassPipeline`,
   which validates every result structurally;
3. runs the allocated program in the iloc interpreter, checking that the
   observable output matches the infinite-register reference execution
   (NaN-tolerant; a mismatch raises a structured
   :class:`~repro.resilience.errors.MiscompileError`);
4. reports per-routine counters.

When an allocator crashes, fails validation, or miscompiles, the harness
walks the fallback ladder (rap -> gra -> ssaspill -> linearscan ->
spillall, see :mod:`repro.resilience.fallback`) instead of aborting,
recording every abandoned rung in ``ProgramRun.fallbacks_taken`` so a
sweep always completes and the report shows *which* cells are degraded.

Metrics, matching §4 exactly: the ``tot`` column is
``(cycles(GRA) - cycles(RAP)) / cycles(GRA)`` as a percentage, and the
``ld``/``st`` columns are the portions of that percentage attributable to
the change in executed loads and stores (each instruction being one
cycle); the remainder is due to copy statements.  An entry is blank when
neither allocation contains spill code for the routine.  The ``ssa``
column is the same ``tot`` metric for the SSA spill-then-color allocator
(:mod:`repro.regalloc.ssaspill`) against the same GRA baseline — the
Table-1 comparison of region-local spilling (RAP) vs SSA-decoupled
spilling on identical programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler import CompiledProgram
from ..interp.machine import ProgramImage, run_program
from ..interp.stats import Counters, ExecStats
from ..ir.iloc import Instr, Op
from ..resilience.errors import StageError
from ..resilience.fallback import FallbackEvent, walk_ladder
from ..resilience.pipeline import PassPipeline
from ..resilience.telemetry import MetricsCollector, StageMetrics
from .suite import PROGRAMS, BenchProgram

DEFAULT_K_VALUES = (3, 5, 7, 9)


@dataclass
class RoutineResult:
    """Measured counters for one routine under one allocator and one k."""

    counters: Counters
    has_spill_code: bool


@dataclass
class ProgramRun:
    """One (program, allocator, k) measurement.

    ``allocator`` is the allocator that was *requested*;
    ``allocator_used`` is the one whose code actually ran (different when
    the fallback ladder engaged), and ``fallbacks_taken`` records every
    rung abandoned on the way there (empty in a healthy run).

    ``metrics`` maps stage name to the cell's
    :class:`~repro.resilience.telemetry.StageMetrics` (wall time spent
    in each pipeline stage, plus allocation rounds / spill counts /
    peephole hits), aggregated across every function allocated and every
    ladder rung attempted; ``wall_time`` is the whole cell's wall-clock
    seconds.  Front-end stages only appear on the first run of a program
    per harness, because compilation is cached.
    """

    program: str
    allocator: str
    k: int
    stats: ExecStats
    spill_code_functions: Dict[str, bool]
    allocator_used: str = ""
    fallbacks_taken: List[FallbackEvent] = field(default_factory=list)
    metrics: Dict[str, StageMetrics] = field(default_factory=dict)
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.allocator_used:
            self.allocator_used = self.allocator

    def routine(self, bench: BenchProgram, name: str) -> RoutineResult:
        total = Counters()
        spill = False
        for func in bench.functions_for(name):
            total.add(self.stats.per_function.get(func, Counters()))
            spill = spill or self.spill_code_functions.get(func, False)
        return RoutineResult(total, spill)


class Harness:
    """Caches compiled programs and executes allocator comparisons on
    the default :class:`PassPipeline`.

    ``fallback=False`` restores fail-fast behaviour: the first stage
    failure propagates as a :class:`StageError` instead of degrading to
    the next allocator in the ladder.
    """

    def __init__(
        self,
        programs: Optional[Sequence[BenchProgram]] = None,
        fallback: bool = True,
    ):
        self.programs = list(programs) if programs is not None else list(PROGRAMS)
        self.fallback = fallback
        self.pipeline = PassPipeline()
        self._compiled: Dict[str, CompiledProgram] = {}
        self._reference_out: Dict[str, list] = {}

    # -- building blocks -----------------------------------------------------

    def compiled(self, bench: BenchProgram) -> CompiledProgram:
        if bench.name not in self._compiled:
            # Through the pipeline (not bare compile_source) so the
            # front-end stages are timed by the active metrics collector.
            self._compiled[bench.name] = self.pipeline.compile(
                bench.source(), filename=bench.filename
            )
        return self._compiled[bench.name]

    def reference_output(self, bench: BenchProgram) -> list:
        if bench.name not in self._reference_out:
            reference = self.compiled(bench).reference_image()
            # A throwaway image over the cached one's functions: the run
            # shares their decoded form, and its translations are freed
            # with it instead of living as long as this harness.
            stats = run_program(
                ProgramImage(reference.globals, reference.functions),
                max_cycles=bench.max_cycles,
            )
            self._reference_out[bench.name] = stats.output
        return self._reference_out[bench.name]

    def allocate_program(
        self,
        bench: BenchProgram,
        allocator: str,
        k: int,
        pre_coalesce: bool = False,
        **alloc_kwargs,
    ) -> Tuple[ProgramImage, Dict[str, bool]]:
        """Allocate every function of a benchmark; returns the executable
        image and a per-function "contains spill code" flag.

        ``pre_coalesce=True`` runs the conservative coalescing pass (the
        paper's future-work extension) before the allocator.
        """
        prog = self.compiled(bench)
        try:
            image, results = self.pipeline.allocate_program(
                prog, allocator, k, coalesce=pre_coalesce, **alloc_kwargs
            )
        except StageError as err:
            if err.context.program is None:
                err.context.program = bench.name
            raise
        spill_flags = {
            name: _has_spill_code(result.code, name)
            for name, result in results.items()
        }
        return image, spill_flags

    def run(
        self,
        bench: BenchProgram,
        allocator: str,
        k: int,
        pre_coalesce: bool = False,
        **alloc_kwargs,
    ) -> ProgramRun:
        """Allocate, execute, and check one (program, allocator, k) cell.

        Walks the fallback ladder on failure (unless ``fallback=False``),
        so the returned run may have executed a simpler allocator than the
        one requested — see :class:`ProgramRun`.
        """

        def attempt(rung: str) -> Tuple[ExecStats, Dict[str, bool]]:
            # Requested-allocator tuning does not transfer down the
            # ladder: rap-only kwargs would crash gra, and a knob that
            # just broke one allocator should not be re-applied to its
            # replacement.
            own = rung == allocator
            image, spill_flags = self.allocate_program(
                bench,
                rung,
                k,
                pre_coalesce=pre_coalesce if own else False,
                **(alloc_kwargs if own else {}),
            )
            where = dict(program=bench.name, allocator=rung, k=k)
            stats = self.pipeline.execute(
                image, max_cycles=bench.max_cycles, **where
            )
            self.pipeline.check_output(
                stats.output, self.reference_output(bench), **where
            )
            return stats, spill_flags

        collector = MetricsCollector()
        previous_collector = self.pipeline.metrics
        self.pipeline.metrics = collector
        started = time.perf_counter()
        try:
            (stats, spill_flags), used, fallbacks = walk_ladder(
                allocator, attempt, fallback=self.fallback
            )
        finally:
            self.pipeline.metrics = previous_collector
        return ProgramRun(
            bench.name,
            allocator,
            k,
            stats,
            spill_flags,
            allocator_used=used,
            fallbacks_taken=fallbacks,
            metrics=collector.stages,
            wall_time=time.perf_counter() - started,
        )


def _has_spill_code(code: Sequence[Instr], func_name: str) -> bool:
    """True if the allocated code contains allocator-inserted spill
    loads/stores (slots named after a virtual register — incoming-argument
    slots do not count)."""
    marker = f"{func_name}.%v"
    for instr in code:
        if instr.op in (Op.LDM, Op.STM) and instr.addr is not None:
            if instr.addr.space == "spill" and marker in instr.addr.name:
                return True
    return False


# ----------------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------------


@dataclass
class Table1Cell:
    """One routine × one k: the percentages of Table 1.

    ``tot``/``ld``/``st`` compare RAP against GRA exactly as in the
    paper; ``ssa`` is the total-cycle percentage for the SSA
    spill-then-color allocator against the same GRA baseline, with its
    own blank flag (a routine can be spill-free under GRA and RAP yet
    spill under ssaspill, or vice versa).

    ``fallbacks`` records any allocator degradations behind the numbers
    (from the GRA, RAP, or ssaspill run of the owning program); a
    non-empty list means the cell compares something other than the pure
    requested allocators.  ``used`` maps each requested allocator to the
    ladder rung whose code actually ran (identical keys and values in a
    healthy cell).
    """

    tot: Optional[float]
    ld: Optional[float]
    st: Optional[float]
    gra: Counters = field(default_factory=Counters)
    rap: Counters = field(default_factory=Counters)
    blank: bool = False
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    used: Dict[str, str] = field(default_factory=dict)
    ssa: Optional[float] = None
    ssa_counters: Counters = field(default_factory=Counters)
    ssa_blank: bool = True


@dataclass
class Table1:
    """The full reproduction of Table 1."""

    k_values: Tuple[int, ...]
    #: routine -> {k -> cell}
    cells: Dict[str, Dict[int, Table1Cell]] = field(default_factory=dict)
    routine_order: List[str] = field(default_factory=list)

    def average(self, k: int) -> float:
        """Average percentage decrease over the non-blank rows for one k."""
        values = [
            row[k].tot
            for row in self.cells.values()
            if k in row and row[k].tot is not None
        ]
        return sum(values) / len(values) if values else 0.0

    def overall_average(self) -> float:
        per_k = [self.average(k) for k in self.k_values]
        return sum(per_k) / len(per_k) if per_k else 0.0

    def ssa_average(self, k: int) -> float:
        """Average ``ssa`` percentage over the rows with a value for one k."""
        values = [
            row[k].ssa
            for row in self.cells.values()
            if k in row and row[k].ssa is not None
        ]
        return sum(values) / len(values) if values else 0.0

    def ssa_overall_average(self) -> float:
        per_k = [self.ssa_average(k) for k in self.k_values]
        return sum(per_k) / len(per_k) if per_k else 0.0

    def degraded_cells(self) -> List[Tuple[str, int, List[FallbackEvent]]]:
        """Every (routine, k) whose measurement involved a fallback."""
        out: List[Tuple[str, int, List[FallbackEvent]]] = []
        for routine in self.routine_order:
            for k in self.k_values:
                cell = self.cells.get(routine, {}).get(k)
                if cell is not None and cell.fallbacks:
                    out.append((routine, k, cell.fallbacks))
        return out


def build_table1(
    harness: Optional[Harness] = None,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    gra_kwargs: Optional[dict] = None,
    rap_kwargs: Optional[dict] = None,
    ssaspill_kwargs: Optional[dict] = None,
    jobs: Optional[int] = None,
    runs_out: Optional[List[ProgramRun]] = None,
) -> Table1:
    """Measure every benchmark and assemble Table 1.

    ``jobs > 1`` farms the (program, allocator, k) cells out to a
    process pool (:mod:`repro.bench.parallel`); the table is assembled
    from the returned runs in the same order as the serial loop, so the
    rendered text is byte-identical either way.  ``runs_out``, when
    given, receives every :class:`ProgramRun` in serial order — the raw
    material for the ``--schedule`` footer.
    """
    harness = harness or Harness()
    table = Table1(tuple(k_values))
    per_allocator = {
        "gra": gra_kwargs,
        "rap": rap_kwargs,
        "ssaspill": ssaspill_kwargs,
    }

    if jobs is not None and jobs > 1:
        from .parallel import CellSpec, run_cells

        specs = []
        for bench in harness.programs:
            for k in k_values:
                for allocator, kwargs in per_allocator.items():
                    specs.append(
                        CellSpec(
                            bench.name,
                            allocator,
                            k,
                            alloc_kwargs=tuple(sorted((kwargs or {}).items())),
                        )
                    )
        runs = run_cells(specs, jobs, harness=harness)

        def measure(bench: BenchProgram, allocator: str, k: int) -> ProgramRun:
            return runs[(bench.name, allocator, k)]

    else:

        def measure(bench: BenchProgram, allocator: str, k: int) -> ProgramRun:
            kwargs = per_allocator[allocator]
            return harness.run(bench, allocator, k, **(kwargs or {}))

    for bench in harness.programs:
        for k in k_values:
            gra_run = measure(bench, "gra", k)
            rap_run = measure(bench, "rap", k)
            ssa_run = measure(bench, "ssaspill", k)
            if runs_out is not None:
                runs_out.extend((gra_run, rap_run, ssa_run))
            fallbacks = (
                gra_run.fallbacks_taken
                + rap_run.fallbacks_taken
                + ssa_run.fallbacks_taken
            )
            used = {
                "gra": gra_run.allocator_used,
                "rap": rap_run.allocator_used,
                "ssaspill": ssa_run.allocator_used,
            }
            for routine in bench.routines:
                gra = gra_run.routine(bench, routine)
                rap = rap_run.routine(bench, routine)
                ssa = ssa_run.routine(bench, routine)
                cell = _make_cell(gra, rap, ssa, fallbacks, used)
                table.cells.setdefault(routine, {})[k] = cell
                if routine not in table.routine_order:
                    table.routine_order.append(routine)
    return table


def _make_cell(
    gra: RoutineResult,
    rap: RoutineResult,
    ssa: Optional[RoutineResult] = None,
    fallbacks: Optional[List[FallbackEvent]] = None,
    used: Optional[Dict[str, str]] = None,
) -> Table1Cell:
    blank = not (gra.has_spill_code or rap.has_spill_code)
    fallbacks = list(fallbacks or [])
    used = dict(used or {})
    g, r = gra.counters, rap.counters
    s = ssa.counters if ssa is not None else Counters()
    ssa_blank = ssa is None or not (gra.has_spill_code or ssa.has_spill_code)
    if g.cycles == 0:
        return Table1Cell(
            None,
            None,
            None,
            g,
            r,
            blank=True,
            fallbacks=fallbacks,
            used=used,
            ssa=None,
            ssa_counters=s,
            ssa_blank=True,
        )
    tot = 100.0 * (g.cycles - r.cycles) / g.cycles
    ld = 100.0 * (g.loads - r.loads) / g.cycles
    st = 100.0 * (g.stores - r.stores) / g.cycles
    ssa_tot = (
        100.0 * (g.cycles - s.cycles) / g.cycles if ssa is not None else None
    )
    return Table1Cell(
        tot,
        ld,
        st,
        g,
        r,
        blank=blank,
        fallbacks=fallbacks,
        used=used,
        ssa=ssa_tot,
        ssa_counters=s,
        ssa_blank=ssa_blank,
    )
