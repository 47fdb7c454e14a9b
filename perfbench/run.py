"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload {table1,compile,service} \\
        --seed N --seconds S --trace {0,1}

Every named figure is printed first, one per line with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` figures of BENCHMARK.json with
``--trace 0``, its ``per_layer`` figures with ``--trace 1``.  Exits
non-zero without a result line when the checkout cannot run the
program (for example when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import (  # noqa: E402
    BenchSetupError,
    platform_stamp,
    use_program_sources,
)
from perfbench.workloads import WORKLOADS, load  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="run the workload's set-up and exit (timed by the parent run)",
    )
    return parser


def _declared(trace: bool) -> dict:
    """name -> unit of the figures BENCHMARK.json asks for in this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _terminate(signum, frame):
    # Unwind normally, so a running fleet is drained and stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        use_program_sources()
        declared = _declared(bool(args.trace))
        workload = load(args.workload)
        if args.setup_only:
            workload.setup(args.seed)
            return 0
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    except (BenchSetupError, OSError) as err:
        print(f"perfbench: cannot run: {err}", file=sys.stderr)
        return 2

    produced = {name: unit for name, (_, unit) in outcome.metrics.values.items()}
    if produced != declared:
        print(
            "perfbench: figures do not match BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(produced))}, "
            f"extra {sorted(set(produced) - set(declared))}, "
            f"unit changes {sorted(n for n in declared if produced.get(n, declared[n]) != declared[n])}",
            file=sys.stderr,
        )
        return 3

    stamp = platform_stamp()
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{key}={value}" for key, value in stamp.items())
    )
    for report in (outcome.report, outcome.metrics):
        for name, (value, unit) in report.values.items():
            print(f"{name}: {value!r} {unit}")
        for note in report.notes:
            print(f"note: {note}")
    for violation in outcome.violations:
        print(f"violation: {violation}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
