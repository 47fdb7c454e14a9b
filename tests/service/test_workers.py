"""The supervised process workers: crash isolation, the per-job
watchdog, respawn backoff, poison-pill quarantine, zombie-free drain,
inherited-socket hygiene, and no-orphans-after-SIGKILL.  Crashes and
hangs are real signals sent to the worker child from outside
(:mod:`tests.service.chaos_drill`)."""

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience.errors import StageError
from repro.service.server import CompileServer, CompileService
from repro.service.workers import Supervision
from tests.service.chaos_drill import probe_request, signal_probe

TRIVIAL = "void main() { print(7); }"

SIEVE_LIKE = """
void main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 25; i = i + 1) { s = s + i * i; }
    print(s);
}
"""


def compile_request(source=TRIVIAL, **overrides):
    request = {"op": "compile", "source": source, "allocator": "rap", "k": 5}
    request.update(overrides)
    return request


def make_service(**overrides):
    kwargs = dict(
        workers=1,
        supervision=Supervision(
            job_timeout_s=2.0,
            backoff_base_s=0.01,
            backoff_cap_s=0.1,
            poison_threshold=2,
        ),
    )
    kwargs.update(overrides)
    service = CompileService(**kwargs)
    service.start()
    return service


def drill(service, request, signum):
    """Send ``signum`` to the worker child compiling ``request``; the
    answer."""
    return signal_probe(
        service.submit, lambda: service.submit({"op": "stats"}), request, signum
    )


class TestProcessColdAndWarm:
    def test_cold_compile_crosses_the_process_boundary(self):
        service = make_service()
        try:
            cold = service.submit(compile_request(SIEVE_LIKE))
            assert cold["ok"] and cold["cache"] == "miss"
            assert "parse" in cold["stages_run"]
            assert cold["output"]  # executed in the child, shipped back
            # Stage telemetry merged parent-side from the child's run.
            assert service.metrics.stages["allocate"].calls >= 1
        finally:
            service.drain(timeout=5.0)

    def test_started_service_has_a_live_worker_before_any_job(self):
        # The first child is spawned with its slot, so its compile-stack
        # import is not charged to the first cold job's watchdog budget.
        service = make_service()
        try:
            stats = service.submit({"op": "stats"})
            worker = stats["supervisor"]["workers"][0]
            assert worker["pid"] is not None and worker["alive"]
            assert worker["jobs_done"] == 0 and worker["restarts"] == 0
        finally:
            service.drain(timeout=5.0)

    def test_warm_hit_is_answered_parent_side(self):
        service = make_service()
        try:
            cold = service.submit(compile_request(SIEVE_LIKE))
            jobs_before = service._supervisor.stats()["workers"][0]["jobs_done"]
            warm = service.submit(compile_request(SIEVE_LIKE))
            assert warm["cache"] == "hit"
            assert warm["stages_run"] == []
            assert warm["image_sha256"] == cold["image_sha256"]
            # The hit never reached the child process.
            jobs_after = service._supervisor.stats()["workers"][0]["jobs_done"]
            assert jobs_after == jobs_before
        finally:
            service.drain(timeout=5.0)

    def test_served_compile_matches_in_process_reference(self):
        # The reference is compile_cold run directly in this process, as
        # perfbench's compile workload runs it.  It is built before the
        # service starts, so no import is in flight when the child forks.
        from repro.resilience.pipeline import PassPipeline, PipelineConfig
        from repro.service.cache import cache_key
        from repro.service.server import compile_cold

        reference = compile_cold(
            PassPipeline(PipelineConfig()),
            {
                "source": SIEVE_LIKE,
                "rung": "rap",
                "k": 6,
                "schedule": False,
                "execute": True,
                "entry": "main",
                "max_cycles": None,
                "filename": "<request>",
                # compile_cold ignores keys it does not read: perfbench's
                # compile workload still sends this retired one.
                "chaos": None,
            },
        )
        service = make_service()
        try:
            served = service.submit(compile_request(SIEVE_LIKE, k=6))
            assert served["ok"] and served["cache"] == "miss"
            assert served["image_sha256"] == reference["image_sha256"]
            assert served["output"] == reference["output"]
            assert served["key"] == cache_key(SIEVE_LIKE, "rap", 6)
        finally:
            service.drain(timeout=5.0)

    def test_stage_error_thaws_across_the_pipe(self):
        service = make_service()
        try:
            response = service.submit(
                compile_request("void main() { int ; }")
            )
            assert not response["ok"]
            error = StageError.thaw(response["error"])
            assert error.stage == "parse"
        finally:
            service.drain(timeout=5.0)

    def test_malformed_requests_answered_without_a_worker(self):
        service = make_service()
        try:
            assert not service.submit({"op": "nope"})["ok"]
            response = service.submit(compile_request(allocator="wat"))
            assert not response["ok"]
            assert "wat" in response["error"]["message"]
        finally:
            service.drain(timeout=5.0)


class TestCrashIsolation:
    def test_crash_is_answered_typed_and_worker_respawns(self):
        service = make_service()
        try:
            crashed = drill(service, probe_request("crash"), signal.SIGKILL)
            assert not crashed["ok"]
            assert crashed["error"]["kind"] == "worker-crash"
            assert "exit" in crashed["error"]["message"]
            # The daemon survived and the respawned child still compiles.
            after = service.submit(compile_request(SIEVE_LIKE))
            assert after["ok"]
            sup = service._supervisor.stats()
            assert sup["crashes"] == 1
            assert sup["restarts"] >= 1
        finally:
            service.drain(timeout=5.0)

    def test_hang_is_killed_by_the_watchdog_within_budget(self):
        service = make_service()
        try:
            started = time.monotonic()
            hung = drill(service, probe_request("hang"), signal.SIGSTOP)
            elapsed = time.monotonic() - started
            assert not hung["ok"]
            assert hung["error"]["kind"] == "worker-timeout"
            # Watchdog (2s) + kill/respawn slack — nowhere near the
            # client's socket timeout.
            assert elapsed < 2.0 + 3.0
            assert service._supervisor.stats()["watchdog_fires"] == 1
            # Service still alive afterwards.
            assert service.submit(compile_request(SIEVE_LIKE))["ok"]
        finally:
            service.drain(timeout=5.0)


class TestPoisonPill:
    def test_striking_key_is_quarantined(self):
        service = make_service()
        try:
            probe = probe_request("poison")
            for _ in range(2):  # poison_threshold strikes
                response = drill(service, probe, signal.SIGKILL)
                assert response["error"]["kind"] == "worker-crash"
            crashes_before = service._supervisor.stats()["crashes"]
            quarantined = service.submit(probe)
            assert quarantined["error"]["kind"] == "poison-pill"
            assert "quarantined" in quarantined["error"]["message"]
            # Answered pre-dispatch: no worker died for it.
            assert service._supervisor.stats()["crashes"] == crashes_before
            stats = service.submit({"op": "stats"})
            assert len(stats["quarantined"]) == 1
            # Other keys are unaffected.
            assert service.submit(compile_request(SIEVE_LIKE))["ok"]
        finally:
            service.drain(timeout=5.0)

    def test_quarantine_survives_restart(self, tmp_path):
        from repro.service.cache import ArtifactCache

        probe = probe_request("persisted poison")
        service = make_service(
            cache=ArtifactCache(persist_dir=str(tmp_path))
        )
        try:
            for _ in range(2):  # poison_threshold strikes
                crashed = drill(service, probe, signal.SIGKILL)
                assert crashed["error"]["kind"] == "worker-crash"
            assert service.submit(probe)["error"]["kind"] == "poison-pill"
        finally:
            service.drain(timeout=5.0)
        assert os.path.exists(os.path.join(str(tmp_path), "quarantine.json"))

        # A fresh process over the same persist_dir must refuse the key
        # up front — no re-striking, no worker sacrificed to relearn it.
        reborn = make_service(cache=ArtifactCache(persist_dir=str(tmp_path)))
        try:
            crashes_before = reborn._supervisor.stats()["crashes"]
            refused = reborn.submit(probe)
            assert refused["error"]["kind"] == "poison-pill"
            assert reborn._supervisor.stats()["crashes"] == crashes_before
            stats = reborn.submit({"op": "stats"})
            assert len(stats["quarantined"]) == 1
            # Healthy keys still compile after the reload.
            assert reborn.submit(compile_request(SIEVE_LIKE))["ok"]
        finally:
            reborn.drain(timeout=5.0)


class TestProcessDrain:
    def test_drain_answers_in_flight_and_reaps_children(self):
        service = make_service(workers=2)
        supervisor = service._supervisor
        try:
            results = []

            def submit(request, name):
                def run():
                    results.append((name, service.submit(request)))

                thread = threading.Thread(target=run, daemon=True)
                thread.start()
                return thread

            threads = [
                submit(compile_request(SIEVE_LIKE, k=3 + i), f"j{i}")
                for i in range(4)
            ]
            time.sleep(0.05)  # some in flight, some queued
            service.drain(timeout=10.0)
            for thread in threads:
                thread.join(timeout=10)
            assert len(results) == 4
            assert all(response["ok"] for _, response in results)
        finally:
            if service._started:
                service.drain(timeout=5.0)
        # Every child reaped: no zombies survive a drain.
        assert supervisor.reaped()
        assert not any(
            proc.name.startswith("compile-worker-proc")
            for proc in multiprocessing.active_children()
        )

    def test_drain_mid_chaos_still_reaps(self):
        service = make_service()
        supervisor = service._supervisor
        try:
            # Leave a killed-and-respawned child running, then drain.
            drill(service, probe_request("pre"), signal.SIGKILL)
            assert service.submit(compile_request(SIEVE_LIKE))["ok"]
        finally:
            service.drain(timeout=10.0)
        assert supervisor.reaped()

    def test_accounting_conserves_every_admitted_request(self):
        service = make_service()
        try:
            service.submit(compile_request(SIEVE_LIKE))
            service.submit(compile_request(SIEVE_LIKE))  # warm
            drill(service, probe_request("c"), signal.SIGKILL)
            service.submit(compile_request("void main() { int ; }"))
            stats = service.submit({"op": "stats"})
            assert (
                stats["requests"]
                == stats["answered"] + stats["cancelled"] + stats["rejected"]
            )
            assert "supervisor" in stats
        finally:
            service.drain(timeout=5.0)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
class TestInheritedSockets:
    """A worker child keeps one socket: its own pipe end.

    Two daemons in one process is the case a list of fds to close,
    kept by the parent, gets wrong: B's child inherits A's listener, so
    a hard-killed A keeps accepting connections nobody will serve.
    """

    @staticmethod
    def _socket_fds(pid):
        """The child's socket fds above the standard streams."""
        fd_dir = f"/proc/{pid}/fd"
        return sorted(
            int(fd) for fd in os.listdir(fd_dir)
            if int(fd) > 2
            and os.readlink(f"{fd_dir}/{fd}").startswith("socket:")
        )

    def test_child_holds_only_its_pipe_and_a_killed_sibling_refuses(self):
        from repro.service.client import ServiceClient

        servers = [
            CompileServer(("127.0.0.1", 0), CompileService(workers=1))
            for _ in range(2)
        ]
        for server in servers:
            threading.Thread(target=server.serve_forever, daemon=True).start()
        a, b = servers
        port_a = a.server_address[1]
        try:
            # A cold compile on B forks B's child while A's listener,
            # B's listener and this client connection are all open.
            with ServiceClient(*b.server_address[:2]) as client:
                assert client.compile(
                    SIEVE_LIKE, allocator="linearscan", k=4
                )["ok"]
                child = b.service._supervisor.stats()["workers"][0]["pid"]
                assert len(self._socket_fds(child)) == 1

            # Hard-kill A: no drain, its listener closed in this process.
            a.shutdown()
            a.server_close()
            started = time.monotonic()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(
                    ("127.0.0.1", port_a), timeout=1.0
                ).close()
            assert time.monotonic() - started < 1.0
        finally:
            for server in servers:
                server.drain_and_shutdown(timeout=5.0)
                server.server_close()


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
class TestDaemonKillOrphans:
    """SIGKILL of the daemon must not strand worker children.

    Fork copies every parent fd into a child: its own pipe's *parent*
    end, sibling pipes, and the TCP listener.  Without the fd hygiene in
    ``_worker_child_main`` a child never sees EOF when the daemon dies
    (it holds its own parent-end open) and its inherited listener copy
    keeps the dead daemon's port accepting connections nobody serves —
    clients and the router then hang on half-open sockets instead of
    getting ECONNREFUSED and failing over.
    """

    @staticmethod
    def _repro_children(pid):
        """Worker children of *pid* (fork copies the cmdline), ignoring
        multiprocessing helpers like the resource tracker.  Children are
        forked from dispatcher *threads*, so every task's children file
        must be read, not just the main thread's."""
        pids = set()
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    listing = open(f"/proc/{pid}/task/{tid}/children").read()
                except OSError:
                    continue
                pids.update(map(int, listing.split()))
        except OSError:
            return set()
        children = set()
        for child in pids:
            try:
                cmdline = open(f"/proc/{child}/cmdline", "rb").read()
            except OSError:
                continue
            if b"repro" in cmdline:
                children.add(child)
        return children

    @staticmethod
    def _exited(pid):
        try:
            state = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()
        except OSError:
            return True  # gone entirely
        return state[0] == "Z"  # zombie: fds already closed

    def test_sigkill_frees_the_port_and_the_children(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port),
                "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            text=True,
        )
        try:
            assert "listening" in daemon.stdout.readline()
            from repro.service.client import connect_with_retry

            # Two cold compiles force both worker children to fork —
            # the second child inherits the first child's pipe fds,
            # which is exactly the leak under test.
            with connect_with_retry(
                "127.0.0.1", port, timeout=30.0, retries=8, backoff=0.05
            ) as client:
                for k in (4, 5):
                    assert client.compile(
                        SIEVE_LIKE, allocator="linearscan", k=k
                    )["ok"]
            children = self._repro_children(daemon.pid)
            assert children, "no worker children forked"

            daemon.kill()
            daemon.wait(timeout=10)

            deadline = time.monotonic() + 10.0
            refused, alive = False, children
            while time.monotonic() < deadline and (alive or not refused):
                alive = {c for c in children if not self._exited(c)}
                try:
                    socket.create_connection(
                        ("127.0.0.1", port), timeout=0.5
                    ).close()
                    refused = False
                except ConnectionRefusedError:
                    refused = True
                except OSError:
                    pass
                time.sleep(0.1)
            assert not alive, f"orphaned worker children: {alive}"
            assert refused, "dead daemon's port still accepts connections"
        finally:
            if daemon.poll() is None:
                daemon.kill()
            daemon.stdout.close()
            daemon.wait(timeout=10)
