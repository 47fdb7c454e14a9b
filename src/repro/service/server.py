"""The compile-and-execute daemon.

Wire protocol: JSON lines over TCP.  A client sends one JSON object per
line and receives one JSON object per line, over a connection it may
hold open for many requests.  Operations:

``{"op": "compile", "source": ..., "allocator": "rap", "k": 5, ...}``
    Compile, allocate (walking the fallback ladder down from the
    requested allocator), optionally execute, and return the artifact
    summary.  Optional fields: ``schedule`` (run the validated
    list-scheduler stage), ``execute`` (default true), ``entry``
    (default ``"main"``), ``max_cycles``, ``deadline_ms`` (admission,
    below).  A repeat is answered from the artifact cache, whose key
    (:func:`repro.service.cache.cache_key`) covers every field the
    answer depends on: the source, the allocator, ``k``, ``schedule``,
    ``execute`` and, for an executed compile, ``entry`` and
    ``max_cycles``.  ``filename`` labels diagnostics only.  A field of
    the wrong type or range is refused before admission with a
    ``request`` error.
``{"op": "stats"}``
    Cache counters, the server-lifetime per-stage telemetry aggregate
    (:class:`~repro.resilience.telemetry.MetricsCollector`), the
    service health state (``healthy`` / ``degraded`` / ``draining``),
    and the supervisor's per-worker restart/kill/crash accounting.
``{"op": "ping"}``
    Liveness.
``{"op": "cache-get", "key": ...}``
    Serve the raw cached artifact (blob + meta) for ``key`` without
    compiling anything; a typed ``replica-miss`` error when the key is
    not cached here.  ``blob`` is the base64 of the stored deflated
    canonical JSON (:func:`repro.interp.serialize.dumps_image`).  The
    router's replication layer uses it to fetch artifacts for
    write-through and read-repair.
``{"op": "cache-put", "key": ..., "blob": ..., "meta": ...}``
    Install raw artifact bytes under ``key`` without compiling —
    the replica-write half of the router's replication protocol.  The
    blob (base64, as ``cache-get`` serves it) must inflate within the
    cache budget to canonical JSON whose sha256 is
    ``meta["image_sha256"]``; bad base64, a bad deflate stream, an
    oversized inflate or a hash mismatch is refused with a ``request``
    error and nothing is installed.

A ``compile`` request may carry ``"warm_only": true``: answer from the
cache (memory or disk tier) if warm, otherwise return a typed
``replica-miss`` error carrying the computed cache key *without
compiling*.  The router probes with it so a warm miss at a key's
primary can be repaired from a replica before paying for a compile.

Responses carry ``"ok"``; failures put a *frozen*
:class:`~repro.resilience.errors.StageError` payload under ``"error"``
(:meth:`StageError.freeze`), which :mod:`repro.service.client` thaws
back into the proper exception subclass — a remote
``MotionValidationError`` is catchable as one.  Non-pipeline failures
(admission rejection, expired deadlines, malformed requests, worker
deaths) use the same payload shape with synthetic kinds ``admission`` /
``deadline`` / ``request`` / ``worker-crash`` / ``worker-timeout`` /
``poison-pill`` (see docs/ROBUSTNESS.md for the full failure-mode
matrix).

Workers
-------

Compiles never run in the server process.  Each worker is a supervised
child **process** (:mod:`repro.service.workers`): a per-job wall-clock
watchdog SIGKILLs a hung worker and answers the job with a typed
``worker-timeout`` error, a crashed worker (nonzero exit, killed by the
OS) answers its job with ``worker-crash`` and is respawned under
exponential backoff, and a restart storm flips the service ``degraded``
(reported in ``stats``; a compile key that keeps killing workers is
quarantined as a poison pill) instead of crash-looping.  The
workers sit behind the admission queue and artifact cache, and every
admitted request is answered exactly once.

Admission and deadlines
-----------------------

Requests enter a bounded earliest-deadline-first queue.  A full queue
rejects immediately (``admission`` error) — the closed-loop clients
back off; the queue never grows without bound.  Each worker pops the
job whose absolute deadline is earliest (deadline-less jobs sort last,
FIFO among themselves), so under saturation a tight-deadline request
overtakes queued generous ones instead of starving behind them.  A job
whose deadline has already passed when a worker picks it up is answered
with a ``deadline`` error without running any compiler stage.  A
``deadline_ms`` that is not a finite number is refused before admission
with a ``request`` error.  The deadline never changes what is compiled.

Shutdown
--------

``drain()`` (wired to SIGTERM/SIGINT by :func:`serve`) stops admitting,
lets the queue empty and in-flight work finish, then stops the workers
and the listener.  In-flight clients get their responses; late arrivals
get an ``admission`` error mentioning the drain.
"""

from __future__ import annotations

import argparse
import base64
import heapq
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..interp.serialize import dumps_image, image_sha256
from ..resilience.fallback import FALLBACK_CHAIN, walk_ladder
from ..resilience.telemetry import MetricsCollector
from . import defaults
from .cache import ArtifactCache, cache_key
from .client import JsonLinesServer, _error_payload, run_daemon

if TYPE_CHECKING:  # pragma: no cover - loaded only where compiles run
    from ..resilience.pipeline import PassPipeline

#: How long a handler waits for its job beyond the job's own deadline —
#: covers the worker's bookkeeping after the deadline check.  A module
#: global (not a bare defaults read) so tests can monkeypatch it.
_GRACE_S = defaults.GRACE_S

_DEFAULT_WAIT_S = defaults.WAIT_S


@dataclass(order=True)
class _Job:
    """One queued request.  Orders by (deadline, sequence): earliest
    deadline first, FIFO among equal/absent deadlines.

    The claim/cancel protocol closes the orphaned-job leak: a submitter
    whose wait times out *cancels* the job, and a worker must *claim* a
    job before compiling it.  Exactly one side wins — a cancelled job is
    skipped by workers without running any compiler stage (counted as
    ``orphaned_skipped``), and a claimed job is always answered, even if
    the submitter has already given up (the answer is discarded, which
    is harmless; the worker was already committed).
    """

    deadline_at: float  # monotonic seconds; +inf when no deadline
    seq: int
    request: Dict[str, Any] = field(compare=False)
    done: threading.Event = field(compare=False, default_factory=threading.Event)
    response: Optional[Dict[str, Any]] = field(compare=False, default=None)
    _state_lock: threading.Lock = field(
        compare=False, default_factory=threading.Lock, repr=False
    )
    _claimed: bool = field(compare=False, default=False)
    _cancelled: bool = field(compare=False, default=False)

    def claim(self) -> bool:
        """Worker side: take ownership.  False if already cancelled."""
        with self._state_lock:
            if self._cancelled:
                return False
            self._claimed = True
            return True

    def cancel(self) -> bool:
        """Submitter side: tombstone an unclaimed job.  False if a
        worker already claimed it (an answer is coming)."""
        with self._state_lock:
            if self._claimed:
                return False
            self._cancelled = True
            return True

    def finish(self, response: Dict[str, Any]) -> None:
        self.response = response
        self.done.set()


class DeadlineQueue:
    """A bounded blocking priority queue ordered by absolute deadline."""

    def __init__(self, limit: int):
        self.limit = limit
        self._heap: List[_Job] = []
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._seq = 0

    def offer(self, job: _Job) -> bool:
        """Admit the job, or refuse immediately when full."""
        with self._lock:
            if len(self._heap) >= self.limit:
                return False
            job.seq = self._seq = self._seq + 1
            heapq.heappush(self._heap, job)
            self._nonempty.notify()
            return True

    def take(self, timeout: Optional[float] = None) -> Optional[_Job]:
        """The earliest-deadline job, blocking up to ``timeout``."""
        with self._nonempty:
            if not self._heap:
                self._nonempty.wait(timeout)
            if not self._heap:
                return None
            return heapq.heappop(self._heap)

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


@dataclass(frozen=True)
class PreparedJob:
    """A validated compile request, planned and ready for a worker.

    Everything a worker child needs to run the cold path, plus the
    parent-side bookkeeping (cache key, admission timestamp) used to
    assemble the response.  Frozen and plain-data so it ships over a
    process pipe unchanged.
    """

    key: str
    rung: str  # the requested allocator: where the ladder walk starts
    source: str
    k: int
    schedule: bool
    execute: bool
    entry: str
    max_cycles: Optional[int]
    filename: str
    chaos: Optional[str]
    started: float

    def spec(self) -> Dict[str, Any]:
        """The picklable job body sent to a worker process."""
        return {
            "source": self.source,
            "rung": self.rung,
            "k": self.k,
            "schedule": self.schedule,
            "execute": self.execute,
            "entry": self.entry,
            "max_cycles": self.max_cycles,
            "filename": self.filename,
            "chaos": self.chaos,
        }


def compile_cold(
    pipeline: PassPipeline, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """Full parse -> ... -> allocate (ladder walk) [-> execute].

    Runs inside the worker child (:mod:`repro.service.workers`); called
    in-process it is the reference a served compile must match.
    Returns the response body with the serialized image under
    ``"_blob"``; raises :class:`StageError` when every ladder rung from
    the requested one (``spec["rung"]``) down fails.
    """
    prog = pipeline.compile(
        spec["source"], filename=spec.get("filename") or "<request>"
    )
    k = spec["k"]
    image, used, fallbacks = walk_ladder(
        spec["rung"],
        lambda rung: pipeline.allocate_program(
            prog, rung, k, schedule=spec["schedule"]
        )[0],
    )

    blob = dumps_image(image)
    response: Dict[str, Any] = {
        "_blob": blob,
        "allocator_requested": spec["rung"],
        "allocator_used": used,
        "k": k,
        "schedule": spec["schedule"],
        "fallbacks": [event.as_dict() for event in fallbacks],
        "image_sha256": image_sha256(blob),
        "image_bytes": len(blob),
    }
    if spec["execute"]:
        stats = pipeline.execute(
            image,
            entry=spec["entry"],
            max_cycles=spec["max_cycles"],
            allocator=used,
            k=k,
        )
        response["output"] = stats.output
        response["cycles"] = stats.total.cycles
        response["interp_tier"] = stats.interp_tier
    return response


class CompileService:
    """The daemon's engine, socket-free (the TCP layer is below).

    ``workers`` supervised child processes (default: one per usable
    core) pull from the deadline queue; each owns a
    :class:`PassPipeline`.  ``worker_delay_s`` injects a fixed per-job
    stall — a test knob, zero in production: the admission, deadline
    and drain tests in ``tests/service/test_server.py`` fill the queue
    with it, and ``tests/service/test_router.py`` holds a backend busy
    with it.  ``supervision`` tunes the workers'
    watchdog/backoff/circuit-breaker parameters
    (:class:`repro.service.workers.Supervision`); ``chaos_enabled``
    makes worker processes honor the ``chaos`` request field
    (deliberate crash/hang probes — never enable outside a chaos run).
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        workers: Optional[int] = None,
        queue_limit: int = defaults.QUEUE_LIMIT,
        worker_delay_s: float = 0.0,
        supervision: Optional["Supervision"] = None,
        chaos_enabled: bool = False,
    ):
        if workers is None:
            workers = defaults.usable_cpus()
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if queue_limit < 1:
            # A zero-slot queue refuses every compile as "queue full".
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        # `cache or ...` would discard a provided cache: an *empty*
        # ArtifactCache is falsy (it has __len__).
        self.cache = cache if cache is not None else ArtifactCache()
        self.queue = DeadlineQueue(queue_limit)
        self.worker_delay_s = worker_delay_s
        self.chaos_enabled = chaos_enabled
        if supervision is None:
            from .workers import Supervision

            supervision = Supervision()
        self.supervision = supervision
        self.metrics = MetricsCollector()
        self._metrics_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._supervisor = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._started = False
        self._requests = 0
        self._rejected = 0
        self._expired = 0
        self._answered = 0
        self._cancelled = 0
        self._orphaned_skipped = 0
        self._workers = workers
        #: poison-pill bookkeeping: compile keys that killed or hung a
        #: worker, and the quarantine once a key strikes out.
        self._strikes: Dict[str, int] = {}
        self._quarantined: Dict[str, str] = {}
        self._cache_gets = 0
        self._cache_puts = 0
        self._load_quarantine()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        from .workers import ProcessWorkerSupervisor

        self._supervisor = ProcessWorkerSupervisor(
            self,
            workers=self._workers,
            supervision=self.supervision,
            chaos_enabled=self.chaos_enabled,
        )
        self._supervisor.start()

    def drain(self, timeout: float = 30.0) -> None:
        """Stop admitting, finish queued and in-flight work, stop workers.

        This also reaps every child: in-flight compiles run to
        completion (or their watchdog), queued jobs are answered, then
        each worker process is shut down and joined — no zombies survive
        a drain.
        """
        self._draining.set()
        deadline = time.monotonic() + timeout
        while len(self.queue) and time.monotonic() < deadline:
            time.sleep(0.01)
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.stop(deadline)
            self._supervisor = None
        self._started = False

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def health(self) -> str:
        """``healthy`` / ``degraded`` / ``draining``.

        ``degraded`` is the supervisor's restart-storm circuit breaker:
        too many worker deaths inside the storm window.  It clears
        itself once the window passes without a new death — the
        "backoff recovery" the chaos harness asserts.
        """
        if self._draining.is_set():
            return "draining"
        if self._supervisor is not None and self._supervisor.degraded:
            return "degraded"
        return "healthy"

    # -- poison-pill quarantine -----------------------------------------------

    def note_strike(self, key: str, reason: str) -> None:
        """Record that compiling ``key`` killed or hung a worker.  At
        ``supervision.poison_threshold`` strikes the key is quarantined:
        further requests for it are answered with a ``poison-pill``
        error without ever reaching a worker again."""
        with self._counter_lock:
            strikes = self._strikes.get(key, 0) + 1
            self._strikes[key] = strikes
            if (
                strikes >= self.supervision.poison_threshold
                and key not in self._quarantined
            ):
                self._quarantined[key] = reason
        self._save_quarantine()

    def _quarantine_path(self) -> Optional[str]:
        """Where strikes/quarantine live across restarts: alongside the
        disk cache tier.  ``None`` (no persistence) without one."""
        persist_dir = getattr(self.cache, "persist_dir", None)
        if not persist_dir:
            return None
        return os.path.join(persist_dir, "quarantine.json")

    def _load_quarantine(self) -> None:
        """Reload the poison-pill book at startup so a restarted daemon
        does not re-learn — by killing workers again — which keys are
        lethal.  An unreadable file starts clean rather than crashing."""
        path = self._quarantine_path()
        if path is None or not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            strikes = document.get("strikes")
            quarantined = document.get("quarantined")
            if isinstance(strikes, dict):
                self._strikes.update(
                    {str(k): int(v) for k, v in strikes.items()}
                )
            if isinstance(quarantined, dict):
                self._quarantined.update(
                    {str(k): str(v) for k, v in quarantined.items()}
                )
        except (OSError, ValueError):
            pass

    def _save_quarantine(self) -> None:
        path = self._quarantine_path()
        if path is None:
            return
        with self._counter_lock:
            document = {
                "strikes": dict(self._strikes),
                "quarantined": dict(self._quarantined),
            }
        tmp = f"{path}.tmp.{threading.get_ident()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def count(self, counter: str, delta: int = 1) -> None:
        """Thread-safe bump of one of the accounting counters."""
        with self._counter_lock:
            setattr(self, f"_{counter}", getattr(self, f"_{counter}") + delta)

    # -- request entry points -------------------------------------------------

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Admission + synchronous wait: the handler-thread entry point.

        ``stats`` and ``ping`` answer inline (they must work even when
        the queue is saturated — that is when you need them); compile
        requests go through the deadline queue.
        """
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return self._stats_response()
        if op == "cache-get":
            return self._cache_get_response(request)
        if op == "cache-put":
            return self._cache_put_response(request)
        if op != "compile":
            return {
                "ok": False,
                "error": _error_payload("request", f"unknown op {op!r}"),
            }
        invalid = _invalid_compile_field(request)
        if invalid is not None:
            return {"ok": False, "error": _error_payload("request", invalid)}
        if self._draining.is_set():
            self.count("rejected")
            return {
                "ok": False,
                "error": _error_payload(
                    "admission", "server is draining", draining=True
                ),
            }
        deadline_ms = request.get("deadline_ms")
        deadline_at = (
            float("inf")
            if deadline_ms is None
            else time.monotonic() + float(deadline_ms) / 1000.0
        )
        job = _Job(deadline_at=deadline_at, seq=0, request=request)
        self.count("requests")
        if not self.queue.offer(job):
            self.count("rejected")
            return {
                "ok": False,
                "error": _error_payload(
                    "admission",
                    f"queue full ({self.queue.limit} waiting)",
                    queue_limit=self.queue.limit,
                ),
            }
        wait_s = (
            _DEFAULT_WAIT_S
            if deadline_ms is None
            else float(deadline_ms) / 1000.0 + _GRACE_S
        )
        if not job.done.wait(wait_s):
            if job.cancel():
                # Tombstoned before any worker touched it: workers will
                # skip it without compiling (the orphaned-job fix).
                self.count("cancelled")
                return {
                    "ok": False,
                    "error": _error_payload(
                        "deadline", "request timed out waiting for a worker"
                    ),
                }
            # A worker claimed the job in the race window; its answer is
            # already on the way — give it the grace period.
            job.done.wait(_GRACE_S)
        if job.response is None:
            return {
                "ok": False,
                "error": _error_payload(
                    "deadline", "request timed out waiting for a worker"
                ),
            }
        return job.response

    # -- the replication surface (raw artifact ops, no compiling) --------------

    def _cache_get_response(self, request: Dict[str, Any]) -> Dict[str, Any]:
        key = request.get("key")
        if not isinstance(key, str) or not key:
            return {
                "ok": False,
                "error": _error_payload("request", "cache-get: missing key"),
            }
        self.count("cache_gets")
        # fetch, not get: replication reads are plumbing and must not
        # distort the hit/miss telemetry operators reason about.
        entry = self.cache.fetch(key)
        if entry is None:
            return {
                "ok": False,
                "key": key,
                "error": _error_payload(
                    "replica-miss", "key not cached on this backend", key=key
                ),
            }
        return {
            "ok": True,
            "op": "cache-get",
            "key": key,
            "blob": base64.b64encode(entry.blob).decode("ascii"),
            "meta": entry.meta,
        }

    def _cache_put_response(self, request: Dict[str, Any]) -> Dict[str, Any]:
        key = request.get("key")
        blob = request.get("blob")
        meta = request.get("meta")
        if (
            not isinstance(key, str)
            or not key
            or not isinstance(blob, str)
            or not isinstance(meta, dict)
        ):
            return {
                "ok": False,
                "error": _error_payload(
                    "request", "cache-put: need key, blob, meta"
                ),
            }
        try:
            raw = base64.b64decode(blob, validate=True)
            identity = image_sha256(raw, limit=defaults.CACHE_BYTES)
        except ValueError as err:  # base64, deflate or bound
            return _refused_put(key, f"cache-put: bad blob: {err}")
        if meta.get("image_sha256") != identity:
            # Refuse to install damaged bytes: a replica write that was
            # corrupted in flight must not become a serveable artifact.
            return _refused_put(
                key, "cache-put: blob does not match meta image_sha256"
            )
        self.cache.put(key, raw, dict(meta))
        self.count("cache_puts")
        return {"ok": True, "op": "cache-put", "key": key, "bytes": len(raw)}

    # -- request planning -----------------------------------------------------

    def prepare(
        self, request: Dict[str, Any]
    ) -> Tuple[Optional[Dict[str, Any]], Optional[PreparedJob]]:
        """Plan one compile request that :meth:`submit` admitted.

        Returns ``(response, None)`` when the request can be answered
        without a worker — quarantined as a poison pill, or a cache hit
        — and ``(None, prepared)`` when the cold path must run.
        """
        started = time.perf_counter()
        source = request["source"]
        allocator = request.get("allocator", defaults.ALLOCATOR)
        k = request.get("k", defaults.K)
        schedule = request.get("schedule", False)
        execute = request.get("execute", True)
        entry_name = request.get("entry", "main")
        max_cycles = request.get("max_cycles")
        key = cache_key(
            source, allocator, k, schedule, execute, entry_name, max_cycles
        )
        quarantine_reason = self._quarantined.get(key)
        if quarantine_reason is not None:
            return (
                {
                    "ok": False,
                    "key": key,
                    "error": _error_payload(
                        "poison-pill",
                        f"compile key quarantined: {quarantine_reason}",
                        key=key,
                        strikes=self._strikes.get(key, 0),
                    ),
                },
                None,
            )
        # A compile that follows a warm_only probe (the router marks it
        # with the probed key) already counted its hit-or-miss once;
        # the second lookup is replication plumbing and stays out of
        # the telemetry.
        probed = request.get("probed")
        if isinstance(probed, str) and probed == key:
            entry = self.cache.fetch(key)
        else:
            entry = self.cache.get(key)
        if entry is not None:
            response = dict(entry.meta)
            response.update(
                {
                    "ok": True,
                    "key": key,
                    "cache": "hit",
                    "stages_run": [],
                    "wall_ms": (time.perf_counter() - started) * 1000.0,
                }
            )
            return response, None
        if request.get("warm_only"):
            # A replication probe: the router wants the warm answer or
            # the computed key (to read-repair from a replica) — never a
            # compile.  The miss above was already counted like any
            # other.
            return (
                {
                    "ok": False,
                    "key": key,
                    "cache": "miss",
                    "error": _error_payload(
                        "replica-miss",
                        "not warm on this backend (warm_only probe)",
                        key=key,
                    ),
                },
                None,
            )
        chaos = request.get("chaos")
        return None, PreparedJob(
            key=key,
            rung=allocator,
            source=source,
            k=k,
            schedule=schedule,
            execute=execute,
            entry=entry_name,
            max_cycles=max_cycles,
            filename=request.get("filename", "<request>"),
            chaos=chaos if isinstance(chaos, str) else None,
            started=started,
        )

    def assemble_cold_response(
        self,
        prepared: PreparedJob,
        body: Dict[str, Any],
        stages: Dict[str, Any],
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Cache the artifact from a completed cold compile and build the
        response.  ``body`` is :func:`compile_cold` output (blob under
        ``"_blob"``); ``stages`` the stage names that ran."""
        meta = dict(body)
        blob = meta.pop("_blob")
        if telemetry is not None:
            meta["telemetry"] = telemetry
        self.cache.put(prepared.key, blob, meta)
        response = dict(meta)
        response.update(
            {
                "ok": True,
                "key": prepared.key,
                "cache": "miss",
                "stages_run": sorted(stages),
                "wall_ms": (time.perf_counter() - prepared.started) * 1000.0,
            }
        )
        return response

    def assemble_error_response(
        self,
        prepared: PreparedJob,
        frozen: Dict[str, Any],
        stages: Sequence[str] = (),
    ) -> Dict[str, Any]:
        """An ``ok: false`` response for a cold path that failed — a
        pipeline :class:`StageError` or a typed worker failure."""
        return {
            "ok": False,
            "key": prepared.key,
            "cache": "miss",
            "stages_run": sorted(stages),
            "error": frozen,
            "wall_ms": (time.perf_counter() - prepared.started) * 1000.0,
        }

    def merge_stage_metrics(self, stages: Dict[str, Any]) -> None:
        """Fold one job's stage metrics into the server-lifetime
        aggregate."""
        with self._metrics_lock:
            self.metrics.merge(stages)

    # -- stats ----------------------------------------------------------------

    def _stats_response(self) -> Dict[str, Any]:
        with self._metrics_lock:
            stages = self.metrics.as_dict()
            execute = self.metrics.stages.get("execute")
            interp_tiers = dict(sorted(execute.tiers.items())) if execute else {}
        with self._counter_lock:
            strikes = dict(self._strikes)
            quarantined = sorted(self._quarantined)
        response = {
            "ok": True,
            "op": "stats",
            "cache": self.cache.stats(),
            "stages": stages,
            # Interpreter-tier census over every executed request this
            # process has served (also present, per stage record, under
            # ``stages["execute"]["tiers"]``).
            "interp_tiers": interp_tiers,
            "requests": self._requests,
            "rejected": self._rejected,
            "expired": self._expired,
            "answered": self._answered,
            "cancelled": self._cancelled,
            "orphaned_skipped": self._orphaned_skipped,
            "cache_gets": self._cache_gets,
            "cache_puts": self._cache_puts,
            "queue_depth": len(self.queue),
            "workers": self._workers,
            "health": self.health,
            "draining": self.draining,
            "poison_strikes": strikes,
            "quarantined": quarantined,
        }
        if self._supervisor is not None:
            response["supervisor"] = self._supervisor.stats()
        return response


def _refused_put(key: str, message: str) -> Dict[str, Any]:
    return {
        "ok": False,
        "key": key,
        "error": _error_payload("request", message, key=key),
    }


def _invalid_compile_field(request: Dict[str, Any]) -> Optional[str]:
    """Why a compile request must be refused before admission, or
    ``None`` when every field it carries has the right type and range.
    ``filename``, ``max_cycles`` and ``deadline_ms`` may be absent or
    null.  ``type(x) is int`` refuses bools, which ``isinstance`` would
    let through."""
    source = request.get("source")
    if not isinstance(source, str) or not source:
        return "missing source"
    allocator = request.get("allocator", defaults.ALLOCATOR)
    if not isinstance(allocator, str) or allocator not in FALLBACK_CHAIN:
        return f"unknown allocator {allocator!r}"
    k = request.get("k", defaults.K)
    if type(k) is not int or k < 3:
        return f"k must be an integer >= 3, got {k!r}"
    for flag in ("schedule", "execute"):
        value = request.get(flag, False)
        if not isinstance(value, bool):
            return f"{flag} must be true or false, got {value!r}"
    entry = request.get("entry", "main")
    if not isinstance(entry, str) or not entry:
        return f"entry must be a non-empty string, got {entry!r}"
    filename = request.get("filename")
    if filename is not None and not isinstance(filename, str):
        return f"filename must be a string, got {filename!r}"
    max_cycles = request.get("max_cycles")
    if max_cycles is not None and (type(max_cycles) is not int or max_cycles < 1):
        return f"max_cycles must be an integer >= 1, got {max_cycles!r}"
    deadline_ms = request.get("deadline_ms")
    if deadline_ms is not None and not _finite_number(deadline_ms):
        return f"deadline_ms must be a finite number, got {deadline_ms!r}"
    return None


def _finite_number(value: Any) -> bool:
    """A finite int or float — not a bool, string, list or NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to become a float
        return False


# ----------------------------------------------------------------------------
# The TCP layer
# ----------------------------------------------------------------------------


class CompileServer(JsonLinesServer):
    """TCP front of a :class:`CompileService`: handlers block in
    ``service.submit`` while the worker pool does the work, and
    :meth:`drain_and_shutdown` takes ``service.drain``'s timeout."""

    def __init__(self, address: Tuple[str, int], service: CompileService):
        super().__init__(address, service.submit, service.drain)
        self.service = service
        service.start()


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument parser.

    A factory (not module state) so the defaults-audit and docs-check
    tests can introspect flags and defaults; every default interpolates
    :mod:`repro.service.defaults` so ``--help`` cannot drift from the
    implementation.
    """
    parser = argparse.ArgumentParser(
        prog="repro serve", description="compile-as-a-service daemon"
    )
    parser.add_argument("--host", default=defaults.HOST)
    parser.add_argument("--port", type=int, default=defaults.PORT)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per usable core)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=defaults.QUEUE_LIMIT
    )
    parser.add_argument(
        "--worker-mode", choices=(defaults.WORKER_MODE,),
        default=defaults.WORKER_MODE,
        help=f"{defaults.WORKER_MODE} (the only mode): crash-isolated "
             "supervised children",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job watchdog: a compile running longer is SIGKILLed "
             f"and answered worker-timeout (default: "
             f"{defaults.JOB_TIMEOUT_S:.0f})",
    )
    parser.add_argument(
        "--storm-window", type=float, default=None, metavar="SECONDS",
        help="restart-storm circuit-breaker window (default: "
             f"{defaults.STORM_WINDOW_S:.0f})",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="honor per-request chaos crash/hang probes (chaos "
             "harness and CI only — never in production)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=None, metavar="N",
        help="in-memory artifact budget (default: "
             f"{defaults.CACHE_BYTES // (1024 * 1024)} MiB)",
    )
    parser.add_argument(
        "--persist-dir", default=None, metavar="DIR",
        help="also persist artifacts to DIR (survives restarts)",
    )
    return parser


def serve(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro serve``: run the daemon until SIGTERM/SIGINT."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.queue_limit < 1:
        parser.error(f"--queue-limit must be at least 1, got {args.queue_limit}")
    if args.job_timeout is not None and not (
        math.isfinite(args.job_timeout) and args.job_timeout > 0
    ):
        parser.error(
            f"--job-timeout must be finite and positive, got {args.job_timeout}"
        )
    if args.storm_window is not None and not (
        math.isfinite(args.storm_window) and args.storm_window > 0
    ):
        parser.error(
            f"--storm-window must be finite and positive, got {args.storm_window}"
        )
    if args.cache_bytes is not None and args.cache_bytes < 0:
        parser.error(f"--cache-bytes must be >= 0, got {args.cache_bytes}")

    cache_kwargs: Dict[str, Any] = {}
    if args.cache_bytes is not None:
        cache_kwargs["max_bytes"] = args.cache_bytes
    if args.persist_dir is not None:
        cache_kwargs["persist_dir"] = args.persist_dir
    from .workers import Supervision

    supervision = Supervision(
        **{
            name: value
            for name, value in (
                ("job_timeout_s", args.job_timeout),
                ("storm_window_s", args.storm_window),
            )
            if value is not None
        }
    )
    service = CompileService(
        cache=ArtifactCache(**cache_kwargs),
        workers=args.workers,
        queue_limit=args.queue_limit,
        supervision=supervision,
        chaos_enabled=args.chaos,
    )
    server = CompileServer((args.host, args.port), service)
    host, port = server.server_address[:2]
    return run_daemon(
        server,
        f"repro service listening on {host}:{port} "
        f"({service._workers} {args.worker_mode} workers, "
        f"queue {args.queue_limit}"
        f"{', CHAOS ENABLED' if args.chaos else ''})",
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve())
