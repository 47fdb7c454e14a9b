"""Pieces every workload uses: set-up timing, the end-to-end figures,
the per-layer figures and the trace file."""

from __future__ import annotations

import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Sequence, Tuple

from ..common import (
    ROOT,
    WORK_DIR,
    Outcome,
    child_env,
    nearest_rank,
    percentile_allowed,
)
from ..tracing import Tracer, layer_metrics

#: Fresh interpreters timed per run; the median is ``setup_s``.
SETUP_REPEATS = 5

#: Compile stages a cold service response reports in its ``telemetry``
#: (``decode`` and ``pycompile`` are parts of ``execute``).
SERVICE_STAGES = (
    "parse",
    "sema",
    "pdg-build",
    "allocate",
    "validate",
    "decode",
    "pycompile",
    "execute",
)
SERVICE_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.router_hop_ms", "ms"),
    ("service.server_overhead_ms", "ms"),
    *((f"service.stage.{stage}_ms", "ms") for stage in SERVICE_STAGES),
    ("cache.hit_rate", "frac"),
    ("router.replica_writes", "count"),
    ("router.read_repairs", "count"),
    ("router.failovers", "count"),
    ("server.rejected", "count"),
    ("workers.restarts", "count"),
)


def child_setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter running the workload's
    set-up (imports plus input construction)."""
    samples: List[float] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [
                sys.executable,
                str(ROOT / "perfbench" / "run.py"),
                "--setup-only",
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            cwd=ROOT,
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return median(samples)


def end_to_end(
    outcome: Outcome,
    passes: Sequence[Tuple[Sequence[float], float]],
    setup_s: float,
    peak_rss_mb: float,
) -> None:
    """The BENCHMARK.json end-to-end figures, plus the failure fractions.

    ``passes`` holds one ``(latencies_ms, wall_s)`` per pass: every
    operation's latency and the wall time the pass took.  Each figure is
    computed per pass and the median over passes is reported, so a run
    that fits more passes reads the same as one that fits fewer.
    """
    figures = [_latency_figures(latencies, wall_s) for latencies, wall_s in passes]
    # Printed, not bounded: the host's speed moves them from run to run
    # by more than the largest bound BENCHMARK.json may set (README).
    outcome.report.add("ops_per_s", median(f["ops_per_s"] for f in figures), "1/s")
    for name in ("p50_ms", "p90_ms"):
        outcome.report.add(name, median(f[name] for f in figures), "ms")
    outcome.metrics.add("peak_rss_mb", peak_rss_mb, "MB")
    outcome.metrics.add("setup_s", setup_s, "s")
    fractions(outcome)


def _latency_figures(latencies_ms: Sequence[float], wall_s: float) -> Dict[str, float]:
    ordered = sorted(latencies_ms)
    if not percentile_allowed(len(ordered), 90.0):
        raise RuntimeError(f"{len(ordered)} operations cannot support a p90")
    return {
        "ops_per_s": len(ordered) / wall_s,
        "p50_ms": nearest_rank(ordered, 50.0),
        "p90_ms": nearest_rank(ordered, 90.0),
    }


def fractions(outcome: Outcome) -> None:
    attempted = max(1, outcome.attempted)
    outcome.report.add("failed_frac", outcome.failed / attempted, "frac")
    outcome.report.add("degraded_frac", outcome.degraded / attempted, "frac")


def overhead_pct(plain_s: Sequence[float], traced_s: Sequence[float]) -> float:
    """Median traced pass time over the untraced one, as a percentage excess."""
    base = median(plain_s)
    return 100.0 * (median(traced_s) - base) / base


def per_layer(
    outcome: Outcome,
    tracer: Tracer,
    passes: int,
    fallback_frac: float,
    overhead_pct: float,
) -> None:
    """Per-pass layer figures of an in-process workload.  The service
    layers do no work here, so they read zero."""
    metrics = outcome.metrics
    for name, (value, unit) in layer_metrics(tracer).items():
        metrics.add(name, value / passes if unit != "Minstr/s" else value, unit)
    metrics.add("regalloc.fallback_frac", fallback_frac, "frac")
    for name, unit in SERVICE_LAYER:
        metrics.add(name, 0.0, unit)
    metrics.add("trace.overhead_pct", overhead_pct, "%")
    fractions(outcome)


def in_process_layer_zeros() -> Dict[str, Tuple[float, str]]:
    """Every in-process layer figure at zero (for the service workload,
    whose compiles run inside the fleet's worker processes)."""
    zeros = {name: (0.0, unit) for name, (_, unit) in layer_metrics(Tracer()).items()}
    zeros["regalloc.fallback_frac"] = (0.0, "frac")
    return zeros


def write_trace(tracer: Tracer, workload: str, seed: int) -> None:
    tracer.write(WORK_DIR / f"trace-{workload}-seed{seed}.json")
