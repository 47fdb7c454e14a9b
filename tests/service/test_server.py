"""The compile daemon: cache semantics, request validation, admission
control, error transport, drain, and the TCP layer."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.interp.machine import run_program
from repro.interp.serialize import loads_image
from repro.resilience.errors import (
    MotionValidationError,
    StageError,
)
from repro.service.cache import ArtifactCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import (
    CompileServer,
    CompileService,
    DeadlineQueue,
    _Job,
)

SIEVE_LIKE = """
void main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 25; i = i + 1) { s = s + i * i; }
    print(s);
}
"""

TRIVIAL = "void main() { print(7); }"


def compile_request(source=SIEVE_LIKE, **overrides):
    request = {
        "op": "compile",
        "source": source,
        "allocator": "rap",
        "k": 5,
    }
    request.update(overrides)
    return request


@pytest.fixture
def service():
    svc = CompileService(workers=2)
    svc.start()
    yield svc
    svc.drain(timeout=5.0)


class TestDeadlineQueue:
    def test_earliest_deadline_first(self):
        queue = DeadlineQueue(limit=8)
        late = _Job(deadline_at=100.0, seq=0, request={"id": "late"})
        never = _Job(deadline_at=float("inf"), seq=0, request={"id": "never"})
        soon = _Job(deadline_at=5.0, seq=0, request={"id": "soon"})
        for job in (late, never, soon):
            assert queue.offer(job)
        order = [queue.take().request["id"] for _ in range(3)]
        assert order == ["soon", "late", "never"]

    def test_fifo_among_deadline_less(self):
        queue = DeadlineQueue(limit=8)
        for name in ("a", "b", "c"):
            queue.offer(_Job(float("inf"), 0, {"id": name}))
        assert [queue.take().request["id"] for _ in range(3)] == ["a", "b", "c"]

    def test_bounded(self):
        queue = DeadlineQueue(limit=2)
        assert queue.offer(_Job(float("inf"), 0, {}))
        assert queue.offer(_Job(float("inf"), 0, {}))
        assert not queue.offer(_Job(float("inf"), 0, {}))


class TestColdAndWarm:
    def test_warm_request_skips_every_compiler_stage(self, service):
        cold = service.submit(compile_request())
        assert cold["ok"] and cold["cache"] == "miss"
        assert "parse" in cold["stages_run"]
        assert "allocate" in cold["stages_run"]
        warm = service.submit(compile_request())
        assert warm["ok"] and warm["cache"] == "hit"
        # The acceptance criterion: byte-identical artifact, zero
        # compiler stages executed (telemetry stage counters are the
        # proof — nothing was recorded for the warm request).
        assert warm["stages_run"] == []
        assert warm["image_sha256"] == cold["image_sha256"]
        assert warm["output"] == cold["output"]
        assert warm["cycles"] == cold["cycles"]
        stats = service.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_server_lifetime_metrics_freeze_when_warm(self, service):
        service.submit(compile_request())
        allocate_calls = service.metrics.stages["allocate"].calls
        for _ in range(3):
            service.submit(compile_request())
        assert service.metrics.stages["allocate"].calls == allocate_calls

    def test_cached_blob_is_a_runnable_image(self, service):
        response = service.submit(compile_request())
        entry = service.cache.get(response["key"])
        image = loads_image(entry.blob)
        stats = run_program(image)
        assert stats.output == response["output"]
        assert stats.total.cycles == response["cycles"]

    def test_different_k_is_a_different_artifact(self, service):
        a = service.submit(compile_request(k=3))
        b = service.submit(compile_request(k=9))
        assert a["key"] != b["key"]
        assert a["output"] == b["output"]  # same program semantics

    def test_schedule_flag_is_part_of_the_key(self, service):
        plain = service.submit(compile_request())
        scheduled = service.submit(compile_request(schedule=True))
        assert plain["key"] != scheduled["key"]
        assert scheduled["cache"] == "miss"
        assert plain["output"] == scheduled["output"]

    def test_cached_answer_follows_the_execution_fields(self, service):
        # The cached meta holds the execution result, so whether the
        # program ran, which function and under which budget are part
        # of the key: none of these may be answered by another's entry.
        source = "void f() { print(2); }\nvoid main() { print(1); }"
        quiet = service.submit(compile_request(source, execute=False))
        assert quiet["ok"] and "output" not in quiet
        ran = service.submit(compile_request(source))
        assert ran["cache"] == "miss" and ran["output"] == [1]
        other_entry = service.submit(compile_request(source, entry="f"))
        assert other_entry["cache"] == "miss" and other_entry["output"] == [2]
        roomy = service.submit(compile_request(source, max_cycles=1_000_000))
        assert roomy["ok"] and roomy["output"] == [1]
        tight = service.submit(compile_request(source, max_cycles=1))
        assert not tight["ok"]
        assert tight["error"]["kind"] == "stage"
        assert "cycle budget exceeded" in tight["error"]["message"]

    def test_provided_empty_cache_is_not_discarded(self, tmp_path):
        # Regression: an empty ArtifactCache is falsy (__len__ == 0), so
        # `cache or ArtifactCache()` silently replaced it and dropped the
        # persist_dir configuration on the floor.
        cache = ArtifactCache(persist_dir=str(tmp_path))
        service = CompileService(cache=cache, workers=1)
        assert service.cache is cache

    def test_restarted_server_is_warm_from_disk(self, tmp_path):
        first = CompileService(
            cache=ArtifactCache(persist_dir=str(tmp_path)), workers=1
        )
        first.start()
        try:
            cold = first.submit(compile_request())
            assert cold["cache"] == "miss"
        finally:
            first.drain(timeout=5.0)

        second = CompileService(
            cache=ArtifactCache(persist_dir=str(tmp_path)), workers=1
        )
        second.start()
        try:
            warm = second.submit(compile_request())
            assert warm["cache"] == "hit"
            assert warm["stages_run"] == []
            assert warm["image_sha256"] == cold["image_sha256"]
            assert warm["output"] == cold["output"]
            assert second.cache.disk_hits == 1
        finally:
            second.drain(timeout=5.0)


#: (field, value) pairs a compile request must be refused for: ``k`` an
#: int >= 3, ``allocator`` a ladder rung, ``schedule``/``execute``
#: bools, ``entry`` a non-empty string, ``max_cycles`` an int >= 1.
MALFORMED_FIELDS = [
    ("k", 0),
    ("k", 2),
    ("k", True),
    ("k", "x"),
    ("k", 5.0),
    ("allocator", ["rap"]),
    ("allocator", 5),
    ("schedule", "false"),
    ("execute", 1),
    ("entry", 5),
    ("entry", ""),
    ("filename", 5),
    ("filename", ["a"]),
    ("max_cycles", "x"),
    ("max_cycles", 0),
    ("max_cycles", -5),
    ("max_cycles", True),
]


class TestErrorTransport:
    def test_parse_error_travels_frozen(self, service):
        response = service.submit(compile_request(source="void main() { int ; }"))
        assert not response["ok"]
        error = StageError.thaw(response["error"])
        assert error.stage == "parse"

    def test_malformed_requests_are_soft_errors(self, service):
        assert not service.submit({"op": "nope"})["ok"]
        assert not service.submit(compile_request(source=""))["ok"]
        response = service.submit(compile_request(allocator="wat"))
        assert not response["ok"]
        assert "wat" in response["error"]["message"]

    @pytest.mark.parametrize(
        "deadline",
        ["soon", [1], True, float("nan"), float("inf"), 10**400],
        ids=["string", "list", "bool", "nan", "inf", "huge-int"],
    )
    def test_malformed_deadline_refused_before_admission(
        self, service, deadline
    ):
        response = service.submit(compile_request(deadline_ms=deadline))
        assert not response["ok"]
        assert response["error"]["kind"] == "request"
        assert "deadline_ms" in response["error"]["message"]
        # Never admitted: nothing was queued, nothing counts as a request.
        assert service.submit({"op": "stats"})["requests"] == 0

    @pytest.mark.parametrize(
        "field,value",
        MALFORMED_FIELDS,
        ids=[f"{field}={value!r}" for field, value in MALFORMED_FIELDS],
    )
    def test_malformed_field_refused_before_admission(
        self, service, field, value
    ):
        response = service.submit(compile_request(**{field: value}))
        assert not response["ok"]
        assert response["error"]["kind"] == "request"
        assert field in response["error"]["message"]
        # Never admitted: no queue slot, no worker, no request counted.
        assert service.submit({"op": "stats"})["requests"] == 0

    def test_validation_error_kind_thaws_to_subclass(self):
        # Client-side: a frozen validator error rebuilds as the proper
        # exception subclass, so remote failures are catchable precisely.
        payload = {
            "kind": "motion-validation",
            "message": "hoisted store dropped",
            "context": {"stage": "validate", "allocator": "rap", "k": 3},
            "cause": None,
        }
        err = ServiceError(payload)
        assert isinstance(err.stage_error, MotionValidationError)
        assert err.stage_error.context.allocator == "rap"

    def test_admission_and_deadline_errors_have_no_stage_error(self):
        err = ServiceError({"kind": "admission", "message": "queue full"})
        assert err.stage_error is None
        assert "queue full" in str(err)


def _submit_async(service, request, results, name):
    def run():
        response = service.submit(request)
        results.append((name, response))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestAdmissionControl:
    def test_full_queue_rejects_immediately(self):
        service = CompileService(
            workers=1, queue_limit=2, worker_delay_s=0.25
        )
        service.start()
        try:
            results = []
            threads = [
                _submit_async(
                    service, compile_request(TRIVIAL, k=3), results, "j0"
                )
            ]
            # j0 offered (the queue's first sequence number) and claimed
            # by the one worker, which now stalls on it.
            _wait_until(
                lambda: service.queue._seq == 1 and len(service.queue) == 0
            )
            threads += [
                _submit_async(
                    service, compile_request(TRIVIAL, k=3 + i), results, f"j{i}"
                )
                for i in (1, 2)
            ]
            _wait_until(lambda: len(service.queue) == 2)  # saturated
            started = time.perf_counter()
            rejected = service.submit(compile_request(TRIVIAL, k=9))
            elapsed = time.perf_counter() - started
            assert not rejected["ok"]
            assert rejected["error"]["kind"] == "admission"
            assert elapsed < 0.2  # immediate, not queued behind the stall
            for thread in threads:
                thread.join(timeout=10)
            assert all(response["ok"] for _, response in results)
        finally:
            service.drain(timeout=5.0)

    def test_saturated_queue_serves_tight_deadlines_first(self):
        # The pinned EDF property: with one worker busy and generous
        # requests queued, a late-arriving tight-deadline request is
        # served next, and nothing starves.
        service = CompileService(
            workers=1,
            queue_limit=16,
            worker_delay_s=0.12,
        )
        service.start()
        try:
            results = []
            threads = [
                _submit_async(
                    service,
                    compile_request(TRIVIAL, k=3 + i, deadline_ms=90_000),
                    results,
                    f"generous{i}",
                )
                for i in range(4)
            ]
            time.sleep(0.06)  # generous0 in flight, 1-3 queued
            threads.append(
                _submit_async(
                    service,
                    compile_request(TRIVIAL, k=8, deadline_ms=4_000),
                    results,
                    "tight",
                )
            )
            for thread in threads:
                thread.join(timeout=30)
            by_name = dict(results)
            assert len(by_name) == 5
            assert all(response["ok"] for response in by_name.values())
            completion = [name for name, _ in results]
            # The tight request jumped every queued generous one.
            assert completion.index("tight") <= 1
        finally:
            service.drain(timeout=5.0)

    def test_deadline_expired_in_queue_is_not_compiled(self):
        service = CompileService(workers=1, queue_limit=8, worker_delay_s=0.2)
        service.start()
        try:
            results = []
            blocker = _submit_async(
                service, compile_request(TRIVIAL, k=3), results, "blocker"
            )
            time.sleep(0.05)  # blocker in flight for ~200ms more
            doomed = service.submit(compile_request(TRIVIAL, k=9, deadline_ms=40))
            assert not doomed["ok"]
            assert doomed["error"]["kind"] == "deadline"
            blocker.join(timeout=10)
            assert results[0][1]["ok"]
            # The doomed request never touched the compiler.
            assert service._expired == 1
        finally:
            service.drain(timeout=5.0)


class TestOrphanedJobs:
    """Regression: a submitter whose wait times out used to leave the
    job live in the queue, and a worker later compiled it for nobody.
    The claim/cancel protocol tombstones it instead."""

    def test_claim_and_cancel_are_mutually_exclusive(self):
        job = _Job(float("inf"), 0, {})
        assert job.cancel()  # submitter gave up first
        assert not job.claim()  # worker must skip it
        other = _Job(float("inf"), 0, {})
        assert other.claim()  # worker got there first
        assert not other.cancel()  # submitter must keep waiting

    def test_cancelled_job_is_skipped_without_compiling(self):
        service = CompileService(workers=1)
        job = _Job(float("inf"), 0, compile_request(TRIVIAL))
        assert service.queue.offer(job)
        assert job.cancel()
        service.start()
        try:
            deadline = time.monotonic() + 5.0
            while service._orphaned_skipped == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service._orphaned_skipped == 1
            # Never claimed, never answered, never compiled.
            assert job.response is None
            assert "parse" not in service.metrics.stages
        finally:
            service.drain(timeout=5.0)

    def test_timed_out_submit_tombstones_the_job(self, monkeypatch):
        from repro.service import server as server_mod

        # Shrink the grace period so the submit-side wait (deadline +
        # grace) elapses while the single worker is still stalled on a
        # blocker job.
        monkeypatch.setattr(server_mod, "_GRACE_S", 0.01)
        service = CompileService(workers=1, worker_delay_s=0.4)
        service.start()
        try:
            results = []
            blocker = _submit_async(
                service, compile_request(TRIVIAL, k=3), results, "blocker"
            )
            time.sleep(0.05)  # blocker claimed and stalled in its delay
            doomed = service.submit(compile_request(TRIVIAL, k=9, deadline_ms=50))
            assert not doomed["ok"]
            assert doomed["error"]["kind"] == "deadline"
            assert service._cancelled == 1
            blocker.join(timeout=10)
            assert results[0][1]["ok"]
            # The worker skipped the tombstone instead of compiling it.
            deadline = time.monotonic() + 5.0
            while service._orphaned_skipped == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service._orphaned_skipped == 1
            stats = service.submit({"op": "stats"})
            # Conservation: every admitted request is accounted exactly
            # once across answered/cancelled.
            assert (
                stats["requests"]
                == stats["answered"] + stats["cancelled"] + stats["rejected"]
            )
        finally:
            service.drain(timeout=5.0)


class TestDrain:
    def test_drain_finishes_queued_work_then_rejects(self):
        service = CompileService(workers=1, queue_limit=8, worker_delay_s=0.05)
        service.start()
        results = []
        threads = [
            _submit_async(
                service, compile_request(TRIVIAL, k=3 + i), results, f"j{i}"
            )
            for i in range(3)
        ]
        time.sleep(0.02)
        service.drain(timeout=10.0)
        for thread in threads:
            thread.join(timeout=10)
        assert len(results) == 3
        assert all(response["ok"] for _, response in results)
        late = service.submit(compile_request(TRIVIAL))
        assert not late["ok"]
        assert late["error"]["kind"] == "admission"
        assert "drain" in late["error"]["message"]


class TestStats:
    def test_stats_surface_cache_and_stage_aggregates(self, service):
        service.submit(compile_request())
        service.submit(compile_request())
        stats = service.submit({"op": "stats"})
        assert stats["ok"]
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["stages"]["allocate"]["calls"] >= 1
        assert stats["stages"]["parse"]["calls"] == 1
        assert stats["requests"] == 2
        assert stats["workers"] == 2
        assert stats["draining"] is False

    def test_stats_surface_interp_tier_census(self, service):
        response = service.submit(compile_request())
        assert response["ok"]
        # Executing cold compiles report which interpreter tier ran.
        assert response["interp_tier"] == "compiled"
        stats = service.submit({"op": "stats"})
        assert stats["interp_tiers"].get("compiled", 0) >= 1
        assert stats["stages"]["execute"]["tiers"]["compiled"] >= 1

    def test_cache_hit_replays_stored_tier(self, service):
        cold = service.submit(compile_request())
        warm = service.submit(compile_request())
        assert warm["cache"] == "hit"
        assert warm.get("interp_tier") == cold["interp_tier"]


class TestTCPLayer:
    @pytest.fixture
    def server(self):
        service = CompileService(workers=2, cache=ArtifactCache())
        server = CompileServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.drain_and_shutdown(timeout=5.0)
        server.server_close()

    def _client(self, server):
        host, port = server.server_address[:2]
        return ServiceClient(host, port)

    def test_many_requests_on_one_connection(self, server):
        with self._client(server) as client:
            assert client.ping()
            cold = client.compile(SIEVE_LIKE, allocator="rap", k=5)
            warm = client.compile(SIEVE_LIKE, allocator="rap", k=5)
            assert cold["cache"] == "miss" and warm["cache"] == "hit"
            assert warm["image_sha256"] == cold["image_sha256"]
            assert warm["output"] == cold["output"]
            stats = client.stats()
            assert stats["cache"]["hits"] == 1

    def test_pipeline_error_raises_service_error(self, server):
        with self._client(server) as client:
            with pytest.raises(ServiceError) as info:
                client.compile("void main() { int ; }")
            assert info.value.stage_error is not None
            assert info.value.stage_error.stage == "parse"

    def test_malformed_deadline_gets_a_typed_answer(self, server):
        # It used to raise in submit, and the daemon closed the
        # connection without a response.
        with self._client(server) as client:
            response = client.request(compile_request(deadline_ms="soon"))
            assert not response["ok"]
            assert response["error"]["kind"] == "request"
            assert client.ping()  # the connection is still usable

    def test_non_object_line_gets_a_typed_answer(self, server):
        # JSON that is not an object is a malformed request: it gets a
        # typed answer and the connection stays usable.
        with self._client(server) as client:
            for payload in ([1], "compile", None):
                response = client.request(payload)
                assert not response["ok"]
                assert response["error"]["kind"] == "request"
            assert client.ping()

    def test_two_clients_share_the_cache(self, server):
        with self._client(server) as one:
            one.compile(TRIVIAL, k=4)
        with self._client(server) as two:
            response = two.compile(TRIVIAL, k=4)
        assert response["cache"] == "hit"


class TestServiceLimits:
    """A queue with no slots refuses every compile as "queue full"; a
    watchdog budget that is not finite and positive kills healthy jobs
    and quarantines their keys as poison pills; and a storm window that
    is not finite and positive keeps the restart-storm breaker tripped
    for good or never trips it."""

    def test_service_rejects_empty_queue(self):
        with pytest.raises(ValueError, match="queue_limit must be at least 1"):
            CompileService(workers=1, queue_limit=0)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_supervision_rejects_bad_job_timeout(self, timeout):
        from repro.service.workers import Supervision

        with pytest.raises(ValueError, match="finite and positive"):
            Supervision(job_timeout_s=timeout)

    @pytest.mark.parametrize("window", [0, -1.0, float("nan"), float("inf")])
    def test_supervision_rejects_bad_storm_window(self, window):
        from repro.service.workers import Supervision

        with pytest.raises(ValueError, match="storm_window_s must be finite"):
            Supervision(storm_window_s=window)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--queue-limit", "0", "--queue-limit must be at least 1"),
            ("--job-timeout", "0", "--job-timeout must be finite and positive"),
            ("--job-timeout", "nan", "--job-timeout must be finite and positive"),
            ("--storm-window", "nan", "--storm-window must be finite and positive"),
            ("--storm-window", "-1", "--storm-window must be finite and positive"),
            ("--cache-bytes", "-5", "--cache-bytes must be >= 0"),
        ],
        ids=[
            "queue-limit-0",
            "job-timeout-0",
            "job-timeout-nan",
            "storm-window-nan",
            "storm-window-negative",
            "cache-bytes-negative",
        ],
    )
    def test_serve_rejects_bad_limits(self, flag, value, message):
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0", flag, value],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert done.returncode == 2
        assert message in done.stderr


class TestWorkerCount:
    """Zero workers would admit compiles that nothing ever answers."""

    def test_service_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            CompileService(workers=0)

    def test_serve_rejects_zero_workers(self):
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "0",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert done.returncode == 2
        assert "--workers must be at least 1" in done.stderr
