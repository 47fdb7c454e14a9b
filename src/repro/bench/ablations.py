"""Text report for the ablation studies (``python -m repro.bench.ablations``).

Each section answers one question from DESIGN.md §5 with executed-cycle
(and load/store/copy) numbers across a subset of the suite.  The same
measurements run under pytest-benchmark in ``benchmarks/test_ablations.py``;
this module is the human-readable one-shot version.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..compiler import compile_source
from .harness import Harness
from .suite import PROGRAMS, BenchProgram, program, program_names

DEFAULT_PROGRAMS = ("hsort", "sieve", "queens", "linpack")


def _row(label: str, counters) -> str:
    return (
        f"  {label:<28} cycles={counters.cycles:<8} loads={counters.loads:<7}"
        f" stores={counters.stores:<6} copies={counters.copies}"
    )


def report(names: Sequence[str], k: int = 3, stream=None) -> None:
    stream = stream or sys.stdout
    harness = Harness()
    benches = [program(name) for name in names]

    def total(bench, allocator, **kwargs):
        return harness.run(bench, allocator, k, **kwargs).stats.total

    print(f"Ablation report (k={k})", file=stream)
    for bench in benches:
        print(f"\n== {bench.name} ==", file=stream)
        gra = total(bench, "gra")
        rap = total(bench, "rap")
        print(_row("GRA baseline", gra), file=stream)
        print(_row("RAP (all phases)", rap), file=stream)
        print(
            _row("SSA spill-then-color", total(bench, "ssaspill")),
            file=stream,
        )
        print(
            _row("RAP, no peephole", total(bench, "rap", enable_peephole=False)),
            file=stream,
        )
        print(
            _row("RAP, no motion", total(bench, "rap", enable_motion=False)),
            file=stream,
        )
        print(
            _row("RAP, global peephole", total(bench, "rap", global_peephole=True)),
            file=stream,
        )
        print(
            _row("RAP, rematerialization", total(bench, "rap", remat=True)),
            file=stream,
        )
        print(
            _row("GRA, rematerialization", total(bench, "gra", remat=True)),
            file=stream,
        )
        print(
            _row("GRA + coalescing", total(bench, "gra", pre_coalesce=True)),
            file=stream,
        )
        print(
            _row("RAP + coalescing", total(bench, "rap", pre_coalesce=True)),
            file=stream,
        )
        print(
            _row("GRA, Chaitin coloring", total(bench, "gra", optimistic=False)),
            file=stream,
        )
        print(
            _row(
                "GRA, loop-weighted costs",
                total(bench, "gra", loop_weight=True),
            ),
            file=stream,
        )
        merged = _merged_granularity_total(bench, k)
        print(_row("RAP, merged regions", merged), file=stream)


def _merged_granularity_total(bench: BenchProgram, k: int):
    harness = Harness()
    harness._compiled[bench.name] = compile_source(
        bench.source(), granularity="merged"
    )
    return harness.run(bench, "rap", k).stats.total


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument(
        "--programs",
        nargs="*",
        default=list(DEFAULT_PROGRAMS),
        choices=program_names(),
        metavar="NAME",
    )
    args = parser.parse_args(argv)
    report(args.programs, k=args.k)
    return 0


if __name__ == "__main__":
    sys.exit(main())
