"""``service``: a router plus 2 backend daemons, driven over the wire.

Each daemon is a subprocess (``serve --worker-mode process --workers
1``; the router keeps its default replication R=2).  This process is
the client: 2 closed-loop connections, each sending its next request
as soon as the previous answer arrives.  Set-up pre-warms a hot set
(every registered program at k in {3,5} with rap).  In the timed
stream 1 request in 5 is cold: a generated program at k in {3,5,7,9}
the fleet has never seen; the other 4 are warm, drawn from the hot set.

Cold inputs come from a screened pool of seeded generated programs.
Each pool program serves 4 cold keys, one per k.  No cold key is sent
twice: the pool is sized to outlast the timed stream on a 2-CPU host,
and if it runs out the stream ends early and the run says so.

Checks: every warm answer has the image digest and output the
pre-warm recorded for its key; every cold answer prints what the
program's reference execution printed; the fleet starts and stops
cleanly each time (no daemon killed, no worker child or port left).
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from statistics import median

from ..common import WORK_DIR, Outcome, latency_summary
from ..fleet import HOST, Fleet
from . import shared
from .inputs import Program, generated_programs, registered_programs

HOT_K = (3, 5)
COLD_K = (3, 5, 7, 9)
COLD_EVERY = 5
CONNECTIONS = 2
#: cold pool: static instruction-count band and total budget (about
#: 300 programs, so 1200 cold keys, 6000 requests)
COLD_SIZE = (50, 300)
COLD_BUDGET = 45000
ALLOCATOR = "rap"
CLIENT_TIMEOUT_S = 60.0
#: fleets started (and all but the last stopped) per run; the median
#: start-plus-pre-warm time is ``setup_s``
FLEETS = 2
#: The fleet's memory grows with every cold answer it caches, so it is
#: read once this many timed requests are handed out: the same work on
#: a fast host and a slow one.  A 27 s stream on 2 CPUs sends 1500-3400.
RSS_AFTER_REQUESTS = 1000


@dataclass
class Inputs:
    hot: List[Tuple[Program, int]]
    cold: List[Program]
    excluded: List[str] = field(default_factory=list)


@dataclass
class Sample:
    kind: str  # "warm" | "cold"
    key: Tuple[str, int]  # (program, k)
    ms: float
    response: Dict[str, Any]


def setup(seed: int) -> Inputs:
    """The request inputs: the hot set and the screened cold pool."""
    import repro.service.client  # noqa: F401

    hot = [(program, k) for program in registered_programs() for k in HOT_K]
    screened = generated_programs(seed, "medium", COLD_SIZE, COLD_BUDGET)
    return Inputs(hot, screened.programs, screened.excluded)


class Stream:
    """The deterministic request sequence of one seed."""

    def __init__(self, seed: int, inputs: Inputs):
        self.seed = seed
        self.inputs = inputs

    def request(self, index: int) -> Optional[Tuple[str, Tuple[str, int], str, int]]:
        """(kind, key, source, k) of request number ``index``; None once
        the cold pool has no unsent key left."""
        if index % COLD_EVERY == COLD_EVERY - 1:
            cold = index // COLD_EVERY
            pool = self.inputs.cold
            if cold >= len(pool) * len(COLD_K):
                return None
            program = pool[cold // len(COLD_K)]
            k = COLD_K[cold % len(COLD_K)]
            return "cold", (program.label, k), program.source, k
        pick = random.Random(self.seed * 1_000_003 + index).randrange(len(self.inputs.hot))
        program, k = self.inputs.hot[pick]
        return "warm", (program.label, k), program.source, k


def _send(client, source: str, k: int) -> Dict[str, Any]:
    from repro.service.client import ServiceError

    try:
        return client.request(
            {"op": "compile", "source": source, "allocator": ALLOCATOR, "k": k}
        )
    except ServiceError as err:
        return {"ok": False, "error": err.payload}


def _closed_loop(port: int, jobs, stop) -> Tuple[List[Sample], float]:
    """Run ``CONNECTIONS`` closed-loop clients; ``jobs()`` hands out the
    next (kind, key, source, k) or None.  Returns samples and wall time."""
    from repro.service.client import ServiceClient

    samples: List[Sample] = []
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client_loop() -> None:
        client = None
        try:
            while not stop():
                job = jobs()
                if job is None:
                    return
                kind, key, source, k = job
                if client is None:
                    client = ServiceClient(HOST, port, timeout=CLIENT_TIMEOUT_S)
                started = time.perf_counter()
                response = _send(client, source, k)
                ms = (time.perf_counter() - started) * 1000.0
                if (response.get("error") or {}).get("kind") in ("transport", "timeout"):
                    client.close()
                    client = None
                with lock:
                    samples.append(Sample(kind, key, ms, response))
        except BaseException as err:  # surfaced by the caller
            errors.append(err)
        finally:
            if client is not None:
                client.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return samples, elapsed


def _prewarm(fleet: Fleet, inputs: Inputs) -> List[Sample]:
    pending = list(inputs.hot)
    lock = threading.Lock()

    def jobs():
        with lock:
            if not pending:
                return None
            program, k = pending.pop()
        return "warm", (program.label, k), program.source, k

    samples, _ = _closed_loop(fleet.port, jobs, lambda: False)
    return samples


def _timed(fleet: Fleet, stream: Stream, seconds: float):
    """The timed stream: (samples, wall seconds, the fleet's peak RSS
    in MB after ``RSS_AFTER_REQUESTS`` requests, or None)."""
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    counter = [0]
    rss: List[float] = []

    def jobs():
        with lock:
            index = counter[0]
            counter[0] += 1
        if index == RSS_AFTER_REQUESTS:
            rss.append(fleet.peak_rss_mb())
        return stream.request(index)

    samples, elapsed = _closed_loop(
        fleet.port, jobs, lambda: time.perf_counter() >= deadline
    )
    return samples, elapsed, rss[0] if rss else None


class Checker:
    """Determinism and reference checks over every answered request."""

    def __init__(self, outcome: Outcome, inputs: Inputs):
        self.outcome = outcome
        self.expected = {program.label: program.expected for program in inputs.cold}
        self.seen: Dict[Tuple[str, int], Tuple[str, Any]] = {}
        self.cold_hits = 0

    def check(self, samples: Sequence[Sample]) -> None:
        from repro.testing.compare import outputs_equal

        for sample in samples:
            response = sample.response
            self.outcome.attempted += 1
            if not response.get("ok"):
                error = response.get("error") or {}
                self.outcome.failed += 1
                self.outcome.report.note(
                    f"{sample.kind} {sample.key} failed: {error.get('kind')}: {error.get('message')}"
                )
                continue
            if response.get("allocator_used") != ALLOCATOR:
                self.outcome.degraded += 1
            answer = (response.get("image_sha256"), response.get("output"))
            first = self.seen.setdefault(sample.key, answer)
            if first[0] != answer[0] or not outputs_equal(first[1], answer[1]):
                self.outcome.violation(f"{sample.key}: answer differs from the first one")
            if sample.kind == "cold":
                self.cold_hits += response.get("cache") == "hit"
                if not outputs_equal(answer[1], self.expected[sample.key[0]]):
                    self.outcome.violation(f"{sample.key}: output differs from reference")


def _start_and_warm(log_dir, outcome: Outcome, checker: Checker, inputs: Inputs):
    fleet = Fleet(log_dir)
    started = time.perf_counter()
    fleet.start()
    try:
        checker.check(_prewarm(fleet, inputs))
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.perf_counter() - started


def _stop(fleet: Fleet, outcome: Outcome) -> None:
    for problem in fleet.stop():
        outcome.violation(f"fleet teardown: {problem}")


def _named(outcome: Outcome, samples: Sequence[Sample], elapsed: float, checker: Checker) -> None:
    report = outcome.report
    report.add("throughput_rps", len(samples) / elapsed, "1/s")
    for kind in ("cold", "warm"):
        report.extend(
            latency_summary(kind, [s.ms for s in samples if s.kind == kind], 99.0)
        )
    report.add("cold_cache_hits", checker.cold_hits, "count")


def _stats_totals(stats: Dict[str, Any]) -> Dict[str, float]:
    router = stats.get("router", {})
    cache = stats.get("cache", {})
    backends = [b.get("stats", {}) for b in stats.get("backends", [])]
    return {
        "hits": cache.get("hits", 0),
        "misses": cache.get("misses", 0),
        "replica_writes": router.get("replica_writes", 0),
        "read_repairs": router.get("read_repairs", 0),
        "failovers": router.get("failovers", 0),
        "rejected": sum(b.get("rejected", 0) for b in backends),
        "restarts": sum(b.get("supervisor", {}).get("restarts", 0) for b in backends),
    }


def service_layers(
    samples: Sequence[Sample], before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Tuple[float, str]]:
    """The service per-layer figures from response fields and ``stats``.

    Warm hits replay the stored telemetry, so stage times come only from
    ``cache == "miss"`` answers.
    """
    answered = [s for s in samples if s.response.get("ok")]
    misses = [s for s in answered if s.response.get("cache") == "miss"]

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def stage_ms(sample: Sample, stage: str) -> float:
        record = (sample.response.get("telemetry") or {}).get(stage) or {}
        return record.get("wall_time_s", 0.0) * 1000.0

    # decode and pycompile are parts of execute, so they are not summed
    top_level = [s for s in shared.SERVICE_STAGES if s not in ("decode", "pycompile")]
    out: Dict[str, Tuple[float, str]] = {
        "service.router_hop_ms": (
            mean([s.ms - s.response.get("wall_ms", 0.0) for s in answered]),
            "ms",
        ),
        "service.server_overhead_ms": (
            mean(
                [
                    s.response.get("wall_ms", 0.0) - sum(stage_ms(s, st) for st in top_level)
                    for s in misses
                ]
            ),
            "ms",
        ),
    }
    for stage in shared.SERVICE_STAGES:
        out[f"service.stage.{stage}_ms"] = (mean([stage_ms(s, stage) for s in misses]), "ms")
    b, a = _stats_totals(before), _stats_totals(after)
    delta = {name: a[name] - b[name] for name in a}
    lookups = delta["hits"] + delta["misses"]
    out["cache.hit_rate"] = (delta["hits"] / lookups if lookups else 0.0, "frac")
    out["router.replica_writes"] = (delta["replica_writes"], "count")
    out["router.read_repairs"] = (delta["read_repairs"], "count")
    out["router.failovers"] = (delta["failovers"], "count")
    out["server.rejected"] = (delta["rejected"], "count")
    out["workers.restarts"] = (delta["restarts"], "count")
    return out


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = setup(seed)
    outcome = Outcome()
    for excluded in inputs.excluded:
        outcome.report.note(f"screened out generator seed {excluded}")
    checker = Checker(outcome, inputs)
    log_dir = WORK_DIR / f"fleet-seed{seed}"
    setups: List[float] = []
    fleet: Optional[Fleet] = None
    for _ in range(FLEETS):
        if fleet is not None:
            _stop(fleet, outcome)
        fleet, took = _start_and_warm(log_dir, outcome, checker, inputs)
        setups.append(took)
    try:
        before = fleet.stats()
        samples, elapsed, rss = _timed(fleet, Stream(seed, inputs), seconds)
        after = fleet.stats()
        checker.check(samples)
        if elapsed < seconds:
            outcome.report.note(
                f"cold pool used up: the stream ended after {elapsed:.1f} s of {seconds:g} s"
            )
        if not trace:
            if rss is None:
                outcome.report.note(
                    f"fleet memory read after the stream: it sent fewer than "
                    f"{RSS_AFTER_REQUESTS} requests"
                )
                rss = fleet.peak_rss_mb()
            _named(outcome, samples, elapsed, checker)
            shared.end_to_end(
                outcome, [([s.ms for s in samples], elapsed)], median(setups), rss
            )
        else:
            # Nothing runs in this process to wrap: the layer figures
            # come from the fleet's answers, and tracing costs nothing.
            metrics = outcome.metrics
            for name, (value, unit) in shared.in_process_layer_zeros().items():
                metrics.add(name, value, unit)
            for name, (value, unit) in service_layers(samples, before, after).items():
                metrics.add(name, value, unit)
            metrics.add("trace.overhead_pct", 0.0, "%")
            shared.fractions(outcome)
    finally:
        _stop(fleet, outcome)
    if outcome.correct:
        shutil.rmtree(log_dir, ignore_errors=True)
    return outcome
