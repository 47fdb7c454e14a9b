"""Supervised process-pool workers for the compile service.

:class:`ProcessWorkerSupervisor` runs each compile worker as a child
**process**, which buys two things in-process compiling cannot provide:

* **crash isolation** — an allocator bug or an OOM kill takes down one
  child, not the daemon.  The job that was running is answered with a
  typed ``worker-crash`` error and the child is respawned under
  exponential backoff;
* **hang containment** — a per-job wall-clock watchdog SIGKILLs a child
  that exceeds ``Supervision.job_timeout_s`` and answers the job with a
  typed ``worker-timeout`` error, so a wedged compile costs one watchdog
  period, not the client's socket timeout and a queue slot forever.

Each worker slot is one child process plus one parent-side dispatcher
thread that owns it: the dispatcher pulls jobs from the service's
earliest-deadline-first queue, answers what it can locally (cache hits,
tombstoned jobs, quarantined keys — via :meth:`CompileService.prepare`),
ships the cold path to the child over a :func:`multiprocessing.Pipe`,
and babysits the child while it works.  Results cross the pipe as plain
data — artifact bytes plus metadata on success, a *frozen*
:class:`~repro.resilience.errors.StageError` on pipeline failure — the
same freeze()/thaw() transport :mod:`repro.bench.parallel` uses for the
``--jobs`` sweep pool, so a remote ``MotionValidationError`` still thaws
to the right class on the client.

Supervision policy (:class:`Supervision`):

* **respawn backoff** — consecutive deaths of one slot back off
  exponentially (``backoff_base_s`` doubling up to ``backoff_cap_s``),
  so a crash-looping worker cannot burn the host;
* **poison-pill quarantine** — a compile key that kills or hangs
  workers ``poison_threshold`` times is quarantined: further requests
  for it are answered immediately with a ``poison-pill`` error and
  never reach a worker again, so one pathological input cannot keep
  assassinating the pool.

Every admitted job is answered exactly once on every path — result,
crash, watchdog kill, dispatcher bug.  The failure drills check it from
outside the daemon: they SIGKILL (a crash) or SIGSTOP (a hang) the child
whose ``stats`` record shows it compiling the drill's probe
(``busy_key`` and ``pid`` in :meth:`_WorkerSlot.stats`).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import stat
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..resilience.errors import StageError
from ..resilience.telemetry import MetricsCollector
from . import defaults
from .client import _error_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .server import CompileService, PreparedJob


@dataclass(frozen=True)
class Supervision:
    """Watchdog / backoff / quarantine parameters for the process
    worker tier.  The defaults suit a production daemon; tests and the
    failure drills shrink them to keep runs fast."""

    #: Wall-clock budget for one job inside a child before the watchdog
    #: SIGKILLs it and answers ``worker-timeout``.
    job_timeout_s: float = defaults.JOB_TIMEOUT_S
    #: First respawn delay after a death; doubles per consecutive death
    #: of the same slot, capped at ``backoff_cap_s``.
    backoff_base_s: float = defaults.BACKOFF_BASE_S
    backoff_cap_s: float = defaults.BACKOFF_CAP_S
    #: Watchdog kills / crashes attributed to one compile key before it
    #: is quarantined as a poison pill.
    poison_threshold: int = defaults.POISON_THRESHOLD

    def __post_init__(self) -> None:
        # A zero or negative budget kills every job and quarantines
        # healthy keys as poison pills; NaN or inf disarms the watchdog.
        if not (math.isfinite(self.job_timeout_s) and self.job_timeout_s > 0):
            raise ValueError(
                "job_timeout_s must be finite and positive, "
                f"got {self.job_timeout_s}"
            )


# ----------------------------------------------------------------------------
# The child process
# ----------------------------------------------------------------------------


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket fd this child inherited, except ``keep``.

    Fork copies every parent fd into the child: its own pipe's *parent*
    end, sibling slots' pipe ends, every listening socket in the daemon
    process (more than one when several servers share it), and open
    client connections.  Holding them is not harmless hygiene debt — a
    child that keeps its own parent end open never sees EOF when the
    daemon is killed, so it blocks in recv() forever, and an inherited
    listener copy keeps a dead daemon's port accepting connections
    nobody will ever serve (clients hang instead of getting
    ECONNREFUSED).  A worker child talks only to its own pipe end, so
    it drops every other socket; fds 0-2 and non-socket fds (the
    multiprocessing sentinel is a plain pipe) are kept.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    try:
        names = os.listdir(fd_dir)
    except OSError:  # no fd directory on this platform: nothing to do
        return
    for name in names:
        fd = int(name)
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own directory fd, now closed
            pass


def _worker_child_main(conn) -> None:
    """Child body: receive job specs, compile cold, send results.

    Runs until the parent sends ``None`` (graceful shutdown), the pipe
    closes (parent died), or the watchdog SIGKILLs us.  Every result is
    plain picklable data; pipeline failures cross as frozen
    ``StageError`` payloads, other exceptions as ``request``-kind
    payloads.
    """
    _close_inherited_sockets(conn.fileno())
    # The parent's SIGTERM/SIGINT handlers (the serve() drain path) are
    # inherited across fork; a signal aimed at the process group must
    # not make children run the parent's drain logic.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Only children compile, so only children import the compiler: the
    # daemon never holds it, and each child loads it once, here.  The
    # slot spawns its first child when it starts, so this import runs
    # before any job, not inside the first job's watchdog budget.
    from .. import compiler, regalloc  # noqa: F401
    from ..resilience.pipeline import PassPipeline
    from .server import compile_cold

    pipeline = PassPipeline()
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            return
        if spec is None:
            return
        collector = MetricsCollector()
        pipeline.metrics = collector
        try:
            body = compile_cold(pipeline, spec)
            result = {"status": "ok", "body": body}
        except StageError as err:
            result = {"status": "error", "error": err.freeze()}
        except Exception as err:  # a bad request must not kill the child
            result = {
                "status": "error",
                "error": _error_payload(
                    "request", f"{type(err).__name__}: {err}"
                ),
            }
        finally:
            pipeline.metrics = None
        result["stages"] = collector.stages  # plain picklable dataclasses
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------------
# Parent-side supervision
# ----------------------------------------------------------------------------


class _WorkerSlot:
    """One supervised worker: a child process and the dispatcher thread
    that owns its lifecycle.  All pipe/process state is touched only by
    this slot's thread (plus :meth:`start`, before the thread exists,
    and the supervisor's last-resort reaper after it has been joined)."""

    def __init__(self, supervisor: "ProcessWorkerSupervisor", index: int):
        self.supervisor = supervisor
        self.index = index
        self.thread = threading.Thread(
            target=self._loop, name=f"compile-proc-worker-{index}", daemon=True
        )
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        # accounting, read by stats() from other threads (ints are
        # fine to read racily; they only ever increase)
        self.spawns = 0
        self.restarts = 0
        self.kills = 0
        self.crashes = 0
        self.jobs_done = 0
        self.consecutive_failures = 0
        self.last_backoff_s = 0.0
        self.busy_key: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the first child, then start the dispatcher thread.

        The child's compile-stack import overlaps daemon start-up rather
        than running inside the first cold job's watchdog budget.  The
        fork happens on the caller's thread, which cannot be halfway
        through an import the child would then wait on forever.
        Respawns after a death stay lazy (and backed off) in
        :meth:`_dispatch`; so does this first spawn if the fork fails.
        """
        try:
            self._spawn()
        except OSError:
            pass
        self.thread.start()

    def _spawn(self) -> None:
        """Fork a fresh child, honoring the consecutive-failure backoff."""
        service = self.supervisor.service
        if self.consecutive_failures:
            backoff = min(
                self.supervisor.supervision.backoff_cap_s,
                self.supervisor.supervision.backoff_base_s
                * (2 ** (self.consecutive_failures - 1)),
            )
            self.last_backoff_s = backoff
            service._stop.wait(backoff)
        parent_conn, child_conn = self.supervisor.ctx.Pipe(duplex=True)
        process = self.supervisor.ctx.Process(
            target=_worker_child_main,
            args=(child_conn,),
            name=f"compile-worker-proc-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        self.spawns += 1
        if self.spawns > 1:
            self.restarts += 1

    def _discard_child(self, kill: bool = False) -> None:
        """Drop (and optionally SIGKILL) the current child, reaping it."""
        process, conn = self.process, self.conn
        self.process = None
        self.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is None:
            return
        if kill and process.is_alive():
            process.kill()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - SIGKILL cannot be refused
            process.terminate()
            process.join(timeout=1.0)

    def _shutdown_child(self) -> None:
        """Graceful end-of-drain: sentinel, join, escalate if needed."""
        if self.process is None:
            return
        if self.conn is not None:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        self.process.join(timeout=2.0)
        self._discard_child(kill=self.process is not None and self.process.is_alive())

    # -- the dispatcher loop -------------------------------------------------

    def _loop(self) -> None:
        service = self.supervisor.service
        while not service._stop.is_set():
            job = service.queue.take(timeout=0.05)
            if job is None:
                continue
            if not job.claim():
                service.count("orphaned_skipped")
                continue
            if service.worker_delay_s:
                time.sleep(service.worker_delay_s)
            job.finish(self._answer(job))
            service.count("answered")
        self._shutdown_child()

    def _answer(self, job) -> Dict[str, Any]:
        """Exactly one typed response for one claimed job, whatever
        happens — the invariant every other guarantee leans on."""
        service = self.supervisor.service
        try:
            if job.deadline_at < time.monotonic():
                service.count("expired")
                return {
                    "ok": False,
                    "error": _error_payload(
                        "deadline", "deadline expired while queued"
                    ),
                }
            response, prepared = service.prepare(job.request)
            if response is not None:
                return response
            assert prepared is not None
            return self._dispatch(prepared)
        except Exception as err:  # the dispatcher must never die
            return {
                "ok": False,
                "error": _error_payload(
                    "request", f"{type(err).__name__}: {err}"
                ),
            }

    def _dispatch(self, prepared: "PreparedJob") -> Dict[str, Any]:
        """Ship one cold compile to the child under the watchdog."""
        if self.process is None or not self.process.is_alive():
            self._discard_child()
            self._spawn()
        self.busy_key = prepared.key
        try:
            try:
                self.conn.send(prepared.spec())
            except (BrokenPipeError, OSError):
                return self._on_crash(prepared)
            deadline = time.monotonic() + self.supervisor.supervision.job_timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return self._on_timeout(prepared)
                try:
                    ready = self.conn.poll(min(0.05, remaining))
                except (BrokenPipeError, OSError):
                    return self._on_crash(prepared)
                if ready:
                    try:
                        result = self.conn.recv()
                    except (EOFError, OSError):
                        return self._on_crash(prepared)
                    return self._on_result(prepared, result)
                if not self.process.is_alive():
                    # The child may have died *after* sending — drain
                    # the pipe once before declaring a crash.
                    try:
                        if self.conn.poll(0):
                            continue
                    except (BrokenPipeError, OSError):
                        pass
                    return self._on_crash(prepared)
        finally:
            self.busy_key = None

    # -- outcome paths -------------------------------------------------------

    def _on_result(
        self, prepared: "PreparedJob", result: Dict[str, Any]
    ) -> Dict[str, Any]:
        service = self.supervisor.service
        self.jobs_done += 1
        self.consecutive_failures = 0
        stages = result.get("stages") or {}
        service.merge_stage_metrics(stages)
        if result["status"] == "ok":
            collector = MetricsCollector()
            collector.merge(stages)
            return service.assemble_cold_response(
                prepared,
                result["body"],
                stages,
                telemetry=collector.as_dict(),
            )
        return service.assemble_error_response(
            prepared, result["error"], sorted(stages)
        )

    def _on_timeout(self, prepared: "PreparedJob") -> Dict[str, Any]:
        """Watchdog fired: SIGKILL the child, answer ``worker-timeout``."""
        service = self.supervisor.service
        pid = self.process.pid if self.process is not None else None
        timeout_s = self.supervisor.supervision.job_timeout_s
        self._discard_child(kill=True)
        self.kills += 1
        self.consecutive_failures += 1
        service.note_strike(
            prepared.key, f"hung compile killed by watchdog after {timeout_s:g}s"
        )
        return service.assemble_error_response(
            prepared,
            _error_payload(
                "worker-timeout",
                f"compile exceeded the {timeout_s:g}s watchdog; "
                f"worker pid {pid} killed",
                key=prepared.key,
                timeout_s=timeout_s,
                worker=self.index,
            ),
        )

    def _on_crash(self, prepared: "PreparedJob") -> Dict[str, Any]:
        """Child died mid-job: answer ``worker-crash``, note the strike."""
        service = self.supervisor.service
        process = self.process
        pid = process.pid if process is not None else None
        if process is not None:
            process.join(timeout=5.0)
        exitcode = process.exitcode if process is not None else None
        self._discard_child()
        self.crashes += 1
        self.consecutive_failures += 1
        service.note_strike(
            prepared.key, f"worker died (exit {exitcode}) while compiling"
        )
        return service.assemble_error_response(
            prepared,
            _error_payload(
                "worker-crash",
                f"worker pid {pid} died (exit {exitcode}) while compiling",
                key=prepared.key,
                exitcode=exitcode,
                worker=self.index,
            ),
        )

    # -- accounting ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        # busy_key before process: the dispatcher sets the process
        # first, so while a job runs, the pid read after its busy key
        # is the child running it (the failure drills signal that pid).
        busy_key = self.busy_key
        process = self.process
        return {
            "worker": self.index,
            "pid": process.pid if process is not None else None,
            "alive": process.is_alive() if process is not None else False,
            "spawns": self.spawns,
            "restarts": self.restarts,
            "watchdog_kills": self.kills,
            "crashes": self.crashes,
            "jobs_done": self.jobs_done,
            "consecutive_failures": self.consecutive_failures,
            "last_backoff_s": self.last_backoff_s,
            "busy_key": busy_key,
        }


class ProcessWorkerSupervisor:
    """Owns the worker slots and sums their accounting."""

    def __init__(
        self,
        service: "CompileService",
        workers: int,
        supervision: Supervision,
    ):
        self.service = service
        self.supervision = supervision
        # fork: cheap respawns that inherit the daemon's modules; a
        # child imports only the compile stack, once (about 0.1 s).  The
        # children only ever compute and talk to their pipe.  Falls back
        # to the platform default where fork does not exist.
        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._slots: List[_WorkerSlot] = [
            _WorkerSlot(self, index) for index in range(workers)
        ]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for slot in self._slots:
            slot.start()

    def stop(self, deadline: float) -> None:
        """Join every dispatcher (which reaps its own child), then
        force-reap anything left.  Called by ``CompileService.drain``
        after the queue has emptied and ``_stop`` is set."""
        join_budget = (
            max(0.0, deadline - time.monotonic())
            + self.supervision.job_timeout_s
            + 2.0
        )
        for slot in self._slots:
            slot.thread.join(join_budget)
        for slot in self._slots:  # last resort: a stuck dispatcher
            if slot.process is not None:
                slot._discard_child(kill=True)

    # -- accounting ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        slots = [slot.stats() for slot in self._slots]
        return {
            "workers": slots,
            "watchdog_fires": sum(s["watchdog_kills"] for s in slots),
            "crashes": sum(s["crashes"] for s in slots),
            "restarts": sum(s["restarts"] for s in slots),
            "job_timeout_s": self.supervision.job_timeout_s,
        }

    def reaped(self) -> bool:
        """True when no child process of this pool is still alive —
        the no-zombies assertion of the drain tests."""
        return all(
            slot.process is None or not slot.process.is_alive()
            for slot in self._slots
        )
