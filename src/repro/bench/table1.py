"""Render the Table 1 reproduction as text.

Run with ``python -m repro.bench.table1`` — prints the same rows as the
paper's Table 1: for each routine and register-set size (3, 5, 7, 9), the
percentage decrease in total executed cycles (RAP vs GRA), the portions
of that decrease due to loads and stores, and the ``ssa`` column — the
same total-cycle metric for the SSA spill-then-color allocator
(:mod:`repro.regalloc.ssaspill`) against the same GRA baseline — then
the per-k averages and the overall averages (the paper's headline 2.7%
for RAP, plus the ssaspill figure).

``--jobs N`` measures the sweep cells in N worker processes; the table
text is byte-identical to a serial run (cells are independent and
assembled in serial order), only the wall-time footer on *stderr*
differs.  Per-layer timings and the exact counters come from
``perfbench/run.py --trace 1`` — see docs/BENCHMARKING.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from ..resilience.telemetry import aggregate
from .harness import DEFAULT_K_VALUES, Harness, ProgramRun, Table1, build_table1
from .suite import program, program_names


def _fmt(value: Optional[float], blank: bool) -> str:
    if blank or value is None:
        return "      "
    if value == 0.0:
        return "   0.0"
    if abs(value) < 0.05:
        return "  +0.0" if value > 0 else "  -0.0"
    return f"{value:6.1f}"


def render_table1(table: Table1, stream=None) -> None:
    stream = stream or sys.stdout
    ks = table.k_values
    header = "Benchmark".ljust(14) + "".join(
        f"|  k={k}: tot    ld    st   ssa " for k in ks
    )
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for routine in table.routine_order:
        row = table.cells[routine]
        line = routine.ljust(14)
        for k in ks:
            cell = row.get(k)
            if cell is None:
                line += "|" + " " * 30
                continue
            line += (
                "|"
                + _fmt(cell.tot, cell.blank)
                + _fmt(cell.ld, cell.blank)
                + _fmt(cell.st, cell.blank)
                + _fmt(cell.ssa, cell.ssa_blank)
                + "  "
            )
        print(line, file=stream)
    print("-" * len(header), file=stream)
    line = "Average".ljust(14)
    for k in ks:
        line += (
            "|"
            + _fmt(table.average(k), False)
            + " " * 12
            + _fmt(table.ssa_average(k), False)
            + "  "
        )
    print(line, file=stream)
    print(
        f"\nOverall average percentage decrease in cycles executed: "
        f"{table.overall_average():.1f}%  (paper: 2.7%)",
        file=stream,
    )
    print(
        f"Overall average for ssaspill (SSA spill-then-color) vs GRA: "
        f"{table.ssa_overall_average():.1f}%",
        file=stream,
    )
    degraded = table.degraded_cells()
    if degraded:
        # Only printed when a fallback fired, so a healthy run's output
        # stays byte-identical to the reference table.
        print("\nDegraded cells (allocator fallbacks taken):", file=stream)
        for routine, k, events in degraded:
            for event in events:
                print(f"  {routine} k={k}: {event}", file=stream)
            used = table.cells[routine][k].used
            rungs = ", ".join(
                f"{req}->{used[req]}"
                for req in sorted(used)
                if used[req] != req
            )
            if rungs:
                print(f"  {routine} k={k}: completed on {rungs}", file=stream)


def render_schedule_footer(runs: List[ProgramRun], stream=None) -> None:
    """The ``--schedule`` delta footer: how much shorter the RAP column's
    code got under list scheduling, in static (latency-model) cycles.

    The interpreter charges one cycle per instruction, so *executed*
    cycle counts are schedule-invariant (the scheduler emits a verified
    permutation of each block) and the table body is byte-identical with
    scheduling on or off — the footer is where the phase-ordering
    experiment's numbers live.
    """
    stream = stream or sys.stdout
    total = aggregate(run.metrics for run in runs).stages.get("schedule")
    if total is None or total.sched_blocks == 0:
        print("\n[schedule] no blocks were scheduled", file=stream)
        return
    before, after = total.sched_length_before, total.sched_length_after
    delta = before - after
    percent = 100.0 * delta / before if before else 0.0
    print(
        f"\n[schedule] RAP column list-scheduled: static schedule length "
        f"{before} -> {after} model cycles ({-delta:+d}, {-percent:.1f}%) "
        f"over {total.sched_blocks} blocks, "
        f"{total.sched_moved} instructions moved",
        file=stream,
    )
    print(
        "[schedule] executed cycle counts are schedule-invariant "
        "(unit-latency interpreter): the table body matches --schedule off",
        file=stream,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    # ``repro table1`` hands its argv here unparsed, so usage lines name
    # that command rather than the interpreter's ``__main__.py``.
    parser = argparse.ArgumentParser(prog="repro table1", description=__doc__)
    parser.add_argument(
        "--k",
        type=int,
        nargs="*",
        default=list(DEFAULT_K_VALUES),
        help="register-set sizes to measure (default: 3 5 7 9)",
    )
    parser.add_argument(
        "--programs",
        nargs="*",
        default=None,
        choices=program_names(),
        metavar="NAME",
        help="restrict to specific benchmark programs",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="measure sweep cells in N worker processes (default: serial)",
    )
    parser.add_argument(
        "--inject",
        action="append",
        metavar="POINT",
        help="arm a fault-injection probe for the whole sweep (repeatable;"
        " fires every matching occurrence — see `repro faults`); the"
        " fallback ladder keeps the table complete and the footer shows"
        " the degradation",
    )
    parser.add_argument(
        "--schedule",
        action="store_true",
        help="run the validated list-scheduler stage on the RAP column and"
        " print a schedule-on/off static-cycle delta footer (the paper's"
        " phase-ordering experiment); the table body is unchanged",
    )
    args = parser.parse_args(argv)

    harness = Harness()
    if args.programs:
        harness = Harness([program(name) for name in args.programs])
    runs: List[ProgramRun] = []
    from contextlib import nullcontext

    from ..resilience import faults

    specs = [faults.FaultSpec(point, times=None) for point in args.inject or []]
    started = time.perf_counter()
    with faults.injected(*specs) if specs else nullcontext():
        table = build_table1(
            harness,
            k_values=args.k,
            jobs=args.jobs,
            runs_out=runs,
            rap_kwargs={"schedule": True} if args.schedule else None,
        )
    wall_time = time.perf_counter() - started
    render_table1(table)
    if args.schedule:
        render_schedule_footer(runs)
    # stderr, so the table on stdout stays byte-identical to
    # results_table1.txt for healthy runs, serial or parallel.
    mode = f"jobs={args.jobs}" if args.jobs and args.jobs > 1 else "serial"
    print(f"[wall] table1 completed in {wall_time:.2f}s ({mode})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
