"""Print the benchmark's exact counters as one JSON document.

    python3 benchmarks/counters.py > BENCH_counters.json

Runs ``perfbench/run.py --workload W --seed 0 --seconds 1 --trace 1``
for the ``table1`` and ``compile`` workloads and keeps every figure
counted in whole units: allocator calls, allocation rounds and spills,
RAP analysis builds, interpreter translations and executed cycles, plus
the number of generated programs the compile workload kept.  They
depend only on the source tree, so CI compares them exactly with the
committed ``BENCH_counters.json``; the ``stamp`` (CPU count and Python
version of the run) records where the file was made and is not
compared.  ``service`` is left out: its router and worker counts
depend on timing.

Exits non-zero, printing nothing on stdout, when a run fails or reports
an incorrect result.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("table1", "compile")


def traced_run(workload: str) -> tuple:
    """(result object, figure lines) of one traced run."""
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"counters: {workload} run failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"counters: {workload} run is not correct:\n{done.stdout}")
    return result, lines[1:-1]


def counters(result: dict, report: list) -> dict:
    found = {
        name: figure["value"]
        for name, figure in result["metrics"].items()
        if figure["unit"] == "count"
    }
    # how many generated programs the compile workload kept is printed
    # above the result line, with the other input figures
    for line in report:
        name, _, rest = line.partition(": ")
        if name == "programs_generated":
            found[name] = float(rest.split()[0])
    return {name: int(value) for name, value in found.items()}


def main() -> int:
    document = {
        "stamp": {"nproc": os.cpu_count(), "python": platform.python_version()}
    }
    for workload in WORKLOADS:
        document[workload] = counters(*traced_run(workload))
    print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
