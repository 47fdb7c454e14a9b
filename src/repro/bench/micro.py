"""Interpreter microbenchmark: slow (tree-walking) vs compiled (generated
Python) dispatch.

``python -m repro.bench.micro`` runs every benchmark program's reference
image through both interpreter tiers and reports executed instructions
per second (Minstr/s) for each, plus the compiled tier's speedup over
the slow loop.  Both tiers execute the *same*
:class:`~repro.interp.machine.FunctionImage` objects and must produce
identical outputs and cycle counters — the harness asserts both, so
this doubles as a quick whole-suite equivalence smoke test.

Decoded and compiled forms are cached on the image, so the compiled
column includes the (one-time) decode/translation cost on its first run;
``--repeat`` amortizes it the way a sweep's repeated executions do.

``--json FILE`` additionally writes the per-program and aggregate
numbers as a JSON document (CI uploads this as an artifact so tier
throughput can be tracked across commits).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..compiler import compile_source
from ..interp.machine import INTERP_TIERS, Machine
from .suite import all_programs, program

#: Measurement order: slow first, so the compiled column pays for the
#: decode/translation cache it populates.
TIER_ORDER = tuple(INTERP_TIERS)  # ("slow", "compiled")


def _time_run(image, max_cycles: int, tier: str):
    machine = Machine(image, max_cycles=max_cycles, tier=tier)
    started = time.perf_counter()
    machine.run("main")
    return time.perf_counter() - started, machine.stats


def run_micro(
    names: Optional[Sequence[str]] = None,
    repeat: int = 1,
    stream=sys.stdout,
) -> Dict[str, object]:
    """Run the microbenchmark; returns the report dict (the ``--json``
    payload).  ``report["speedup"]["compiled_vs_slow"]`` is the headline
    execute-stage ratio."""
    benches = (
        [program(name) for name in names] if names else all_programs()
    )
    header = (
        f"{'program':<12} {'Minstr':>8} "
        f"{'slow Mi/s':>10} {'comp Mi/s':>10} {'c/slow':>7}"
    )
    print(header, file=stream)
    print("-" * len(header), file=stream)
    totals = {tier: 0.0 for tier in TIER_ORDER}
    total_instrs = 0
    rows: List[Dict[str, object]] = []
    for bench in benches:
        image = compile_source(
            bench.source(), filename=bench.filename
        ).reference_image()
        seconds = {tier: 0.0 for tier in TIER_ORDER}
        stats = {}
        for _ in range(repeat):
            for tier in TIER_ORDER:
                elapsed, run_stats = _time_run(image, bench.max_cycles, tier)
                seconds[tier] += elapsed
                stats[tier] = run_stats
        if stats["slow"].output != stats["compiled"].output:
            raise AssertionError(
                f"{bench.name}: outputs diverge on the compiled tier"
            )
        if stats["slow"].total != stats["compiled"].total:
            raise AssertionError(
                f"{bench.name}: counters diverge on the compiled tier"
            )
        instrs = stats["slow"].total.cycles * repeat
        total_instrs += instrs
        for tier in TIER_ORDER:
            totals[tier] += seconds[tier]
        mips = {
            tier: instrs / seconds[tier] / 1e6 for tier in TIER_ORDER
        }
        rows.append(
            {
                "program": bench.name,
                "instructions": instrs,
                "seconds": dict(seconds),
                "minstr_per_s": {t: round(v, 2) for t, v in mips.items()},
                "speedup": {
                    "compiled_vs_slow": round(
                        seconds["slow"] / seconds["compiled"], 2
                    ),
                },
            }
        )
        print(
            f"{bench.name:<12} {instrs / 1e6:>8.2f} "
            f"{mips['slow']:>10.2f} {mips['compiled']:>10.2f} "
            f"{seconds['slow'] / seconds['compiled']:>6.1f}x",
            file=stream,
        )
    print("-" * len(header), file=stream)
    aggregate_mips = {
        tier: total_instrs / totals[tier] / 1e6 for tier in TIER_ORDER
    }
    print(
        f"{'total':<12} {total_instrs / 1e6:>8.2f} "
        f"{aggregate_mips['slow']:>10.2f} {aggregate_mips['compiled']:>10.2f} "
        f"{totals['slow'] / totals['compiled']:>6.1f}x",
        file=stream,
    )
    return {
        "repeat": repeat,
        "programs": rows,
        "total_instructions": total_instrs,
        "total_seconds": {t: round(v, 4) for t, v in totals.items()},
        "minstr_per_s": {t: round(v, 2) for t, v in aggregate_mips.items()},
        "speedup": {
            "compiled_vs_slow": round(
                totals["slow"] / totals["compiled"], 2
            ),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.micro",
        description="slow/compiled interpreter microbenchmark",
    )
    parser.add_argument(
        "--programs",
        nargs="+",
        metavar="NAME",
        help="benchmark programs to run (default: all)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="executions per (program, tier) pair (default 1)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the report as JSON ('-' for stdout)",
    )
    args = parser.parse_args(argv)
    report = run_micro(args.programs, repeat=args.repeat)
    if args.json == "-":
        json.dump(report, sys.stdout, indent=2)
        print()
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
