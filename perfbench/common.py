"""Shared pieces of the benchmark: locating the program, statistics,
memory readings and the per-run result record."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch output of a run (trace files, fleet logs); never committed.
WORK_DIR = ROOT / ".perfbench"

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a tail figure never rests on one or two outliers.
TAIL_SAMPLES = 10


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (program sources missing)."""


def use_program_sources() -> None:
    """Make ``import repro`` load the checkout's own sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchSetupError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a subprocess that must import the same sources."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


# -- statistics -----------------------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def percentile_allowed(count: int, q: float) -> bool:
    return beyond(count, q) >= TAIL_SAMPLES


def tail_percentile(
    count: int, candidates: Sequence[float] = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)
) -> Optional[float]:
    """The highest candidate percentile ``count`` samples can support."""
    for q in candidates:
        if percentile_allowed(count, q):
            return q
    return None


def latency_summary(name: str, samples_ms: Sequence[float], q: float) -> "Report":
    """``<name>_p50_ms`` plus ``<name>_p<q>_ms``, or why it is missing."""
    report = Report()
    ordered = sorted(samples_ms)
    report.add(f"{name}_n", len(ordered), "count")
    if not ordered:
        return report
    report.add(f"{name}_p50_ms", nearest_rank(ordered, 50.0), "ms")
    label = f"{name}_p{q:g}_ms"
    if percentile_allowed(len(ordered), q):
        report.add(label, nearest_rank(ordered, q), "ms")
    else:
        report.note(
            f"{label}: not reported, {len(ordered)} samples leave fewer than "
            f"{TAIL_SAMPLES} beyond it"
        )
        fallback = tail_percentile(len(ordered))
        if fallback is not None:
            report.add(
                f"{name}_p{fallback:g}_ms", nearest_rank(ordered, fallback), "ms"
            )
    return report


# -- memory ---------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def platform_stamp() -> Dict[str, str]:
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "os": f"{platform.system()} {platform.release()}",
    }


# -- timing ---------------------------------------------------------------------


def after_first_pass_rss(one_pass: Callable[[], object]) -> Tuple[Callable[[], object], List[float]]:
    """Wrap ``one_pass`` to note this process's peak resident set once
    the first pass ends, before later passes' results pile up; returns
    the wrapped pass and the list the reading lands in."""
    reading: List[float] = []

    def wrapped() -> object:
        result = one_pass()
        if not reading:
            reading.append(self_peak_rss_mb())
        return result

    return wrapped, reading


def timed_passes(seconds: float, one_pass: Callable[[], object]) -> List[Tuple[float, object]]:
    """Repeat whole passes for about ``seconds`` of wall time.

    At least one pass runs; another starts only when the mean pass so
    far predicts it ends within a quarter over the budget, so every
    measured pass is complete and covers the same operations.
    """
    passes: List[Tuple[float, object]] = []
    elapsed = 0.0
    while True:
        started = time.perf_counter()
        result = one_pass()
        took = time.perf_counter() - started
        passes.append((took, result))
        elapsed += took
        if elapsed + elapsed / len(passes) > seconds * 1.25:
            return passes


# -- the result record ----------------------------------------------------------


@dataclass
class Report:
    """Named, unit-carrying figures plus free-text notes, in order."""

    values: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def extend(self, other: "Report") -> None:
        self.values.update(other.values)
        self.notes.extend(other.notes)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    degraded: int = 0
    #: correctness violations (text, digest or determinism mismatches);
    #: each also counts as a failed operation.
    violations: List[str] = field(default_factory=list)
    #: the figures named in BENCHMARK.json for this mode
    metrics: Report = field(default_factory=Report)
    #: every other named figure, printed above the result line
    report: Report = field(default_factory=Report)

    def violation(self, text: str) -> None:
        self.violations.append(text)
        self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.violations
