"""Register-count sweep: executed cycles as a function of k.

``python -m repro.bench.sweep`` prints, for each program, the GRA, RAP,
and SSA spill-then-color cycle counts for every k in a range — the
curves behind Table 1's four sampled columns.  Useful for seeing where
each benchmark stops spilling (the curve flattens) and where the
allocators cross.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .harness import Harness
from .suite import program, program_names

DEFAULT_PROGRAMS = ("sieve", "hsort", "queens")


def sweep(
    names: Sequence[str],
    k_values: Sequence[int],
    harness: Optional[Harness] = None,
    jobs: Optional[int] = None,
) -> Dict[str, List[Tuple[int, int, int, int]]]:
    """Measure ``(k, gra_cycles, rap_cycles, ssa_cycles)`` rows per
    program (``ssa`` being the SSA spill-then-color allocator).

    ``jobs > 1`` measures the (program, allocator, k) cells in a process
    pool; the curves are identical to a serial sweep (cells are
    independent), only wall time changes.
    """
    harness = harness or Harness()
    if jobs is not None and jobs > 1:
        from .parallel import cells_for, run_cells

        runs = run_cells(
            cells_for(names, k_values, allocators=("gra", "rap", "ssaspill")),
            jobs,
            harness=harness,
        )

        def cycles(name: str, allocator: str, k: int) -> int:
            return runs[(name, allocator, k)].stats.total.cycles

    else:

        def cycles(name: str, allocator: str, k: int) -> int:
            return harness.run(program(name), allocator, k).stats.total.cycles

    curves: Dict[str, List[Tuple[int, int, int, int]]] = {}
    for name in names:
        rows: List[Tuple[int, int, int, int]] = []
        for k in k_values:
            rows.append(
                (
                    k,
                    cycles(name, "gra", k),
                    cycles(name, "rap", k),
                    cycles(name, "ssaspill", k),
                )
            )
        curves[name] = rows
    return curves


def render(
    curves: Dict[str, List[Tuple[int, int, int, int]]], stream=None
) -> None:
    stream = stream or sys.stdout
    for name, rows in curves.items():
        print(f"\n== {name} ==", file=stream)
        print(
            f"{'k':>3} | {'GRA':>9} | {'RAP':>9} | {'SSA':>9} |"
            f" {'RAP vs GRA':>10} | {'SSA vs GRA':>10}",
            file=stream,
        )
        for k, gra, rap, ssa in rows:
            gain = 100.0 * (gra - rap) / gra if gra else 0.0
            ssa_gain = 100.0 * (gra - ssa) / gra if gra else 0.0
            marker = " <- flat" if _is_flat(rows, k) else ""
            print(
                f"{k:>3} | {gra:>9} | {rap:>9} | {ssa:>9} |"
                f" {gain:>+9.1f}% | {ssa_gain:>+9.1f}%{marker}",
                file=stream,
            )


def _is_flat(rows: List[Tuple[int, int, int, int]], k: int) -> bool:
    """True when no allocator improves beyond this k (spilling over)."""
    this = next(row for row in rows if row[0] == k)
    later = [row for row in rows if row[0] > k]
    if not later:
        return False
    return all(row[1:] == this[1:] for row in later)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-min", type=int, default=3)
    parser.add_argument("--k-max", type=int, default=10)
    parser.add_argument(
        "--programs",
        nargs="*",
        default=list(DEFAULT_PROGRAMS),
        choices=program_names(),
        metavar="NAME",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="measure cells in N worker processes (default: serial)",
    )
    args = parser.parse_args(argv)
    curves = sweep(
        args.programs, range(args.k_min, args.k_max + 1), jobs=args.jobs
    )
    render(curves)
    return 0


if __name__ == "__main__":
    sys.exit(main())
