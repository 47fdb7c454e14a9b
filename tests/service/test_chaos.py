"""The failure drill end to end: worker SIGKILLs, SIGSTOPs, and
malformed requests against a live daemon while loadgen runs beside it,
with the exactly-one-typed-answer invariant, warm-path determinism
across churn, the supervisor's counters, and SIGTERM drain through the
real CLI."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.service.client import ServiceError, connect_with_retry
from repro.service.loadgen import default_mix, run_loadgen
from repro.service.server import CompileServer, CompileService
from repro.service.workers import Supervision
from tests.service.chaos_drill import run_drill

#: Bench programs only — the corpus would make chaos runs slow.
MIX = default_mix(("sieve", "hanoi"), corpus=False)


def start_server(service):
    server = CompileServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]


def loadgen_beside_drill(port, loadgen, drill):
    """Run loadgen on a thread while the drill probes the same daemon;
    return (loadgen report, drill report)."""
    reports = []
    thread = threading.Thread(
        target=lambda: reports.append(run_loadgen(port=port, **loadgen)),
        daemon=True,
    )
    thread.start()
    probes = run_drill(port=port, **drill)
    thread.join(timeout=120)
    assert reports, "loadgen never finished"
    return reports[0], probes


class TestChaosLoadgen:
    def test_chaos_run_is_fully_answered_and_deterministic(self):
        # Reference: the same request stream against a chaos-free
        # server, for the byte-identity comparison.
        reference_service = CompileService(workers=2)
        server, port = start_server(reference_service)
        try:
            reference = run_loadgen(
                port=port, requests=8, workers=2, mix=MIX, allocator="rap"
            )
        finally:
            server.drain_and_shutdown(timeout=10.0)
            server.server_close()
        assert reference.errors == 0 and reference.mismatches == 0

        # The drill: a tight watchdog, probes beside the normal mix.
        supervision = Supervision(
            job_timeout_s=1.5,
            backoff_base_s=0.01,
            backoff_cap_s=0.1,
            poison_threshold=10,  # strikes ride unique keys anyway
        )
        service = CompileService(workers=2, supervision=supervision)
        server, port = start_server(service)
        try:
            report, probes = loadgen_beside_drill(
                port,
                dict(requests=8, workers=2, mix=MIX, allocator="rap",
                     retries=4),
                dict(crashes=2, hangs=1, malformed=2, allocator="rap"),
            )
            # The invariant: every request — normal or probe — got
            # exactly one typed answer; nothing fell on the floor.
            assert report.unanswered == 0
            assert probes["unanswered"] == 0
            assert probes["probes"] == 5
            kinds = probes["answer_kinds"]
            assert kinds.get("worker-crash", 0) == 2
            assert kinds.get("worker-timeout", 0) == 1
            assert kinds.get("request", 0) == 2  # both malformed probes
            # The hang probe was answered by the watchdog, nowhere near
            # the client's socket timeout.
            assert probes["hang_latency_ms"]
            assert max(probes["hang_latency_ms"]) < 1_500 + 5_000
            # Warm-path determinism survived the churn: zero
            # disagreements within the run, byte-identical artifacts
            # against the chaos-free reference.
            assert report.mismatches == 0
            overlap = set(report.artifacts) & set(reference.artifacts)
            assert overlap  # same mix, same keys: must overlap
            for key in overlap:
                assert report.artifacts[key] == reference.artifacts[key]
            # With retries armed, the normal mix rode out the churn.
            assert report.ok == report.requests
            # Respawned workers serve a clean pass after the drill.
            after = run_loadgen(
                port=port, requests=8, workers=2, mix=MIX, allocator="rap"
            )
            assert after.errors == 0 and after.unanswered == 0
            # The supervisor counted the real deaths, and every
            # admitted request was answered, cancelled or rejected.
            with connect_with_retry("127.0.0.1", port, retries=3) as client:
                stats = client.stats()
            assert stats["supervisor"]["crashes"] >= 1
            assert stats["supervisor"]["watchdog_fires"] >= 1
            assert (
                stats["requests"]
                == stats["answered"] + stats["cancelled"] + stats["rejected"]
            )
        finally:
            server.drain_and_shutdown(timeout=10.0)
            server.server_close()

    def test_chaos_probes_do_not_poison_the_normal_mix(self):
        service = CompileService(
            workers=1,
            supervision=Supervision(
                job_timeout_s=1.5,
                backoff_base_s=0.01,
                poison_threshold=2,
            ),
        )
        server, port = start_server(service)
        try:
            report, probes = loadgen_beside_drill(
                port,
                dict(requests=4, workers=1, mix=MIX, allocator="linearscan",
                     retries=3),
                dict(crashes=2, hangs=0, malformed=0, allocator="linearscan"),
            )
            assert report.unanswered == 0
            assert probes["answer_kinds"] == {"worker-crash": 2}
            # Dedicated probe sources: no normal-mix key was quarantined.
            with connect_with_retry("127.0.0.1", port, retries=3) as client:
                stats = client.stats()
            for key in report.artifacts:
                assert key not in stats["quarantined"]
            assert report.ok == report.requests
        finally:
            server.drain_and_shutdown(timeout=10.0)
            server.server_close()


class TestSigtermDrain:
    def test_sigterm_mid_chaos_drains_cleanly(self, tmp_path):
        """The real signal path: serve under SIGTERM mid-run answers
        in-flight work, reaps its workers, and exits 0."""
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port),
                "--workers", "1",
                "--job-timeout", "2",
                "--queue-limit", "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            text=True,
        )
        try:
            assert "listening" in daemon.stdout.readline()
            client = connect_with_retry(
                "127.0.0.1", port, timeout=30.0, retries=8, backoff=0.05
            )
            answers = []
            with client:
                name, source = MIX[0]
                assert client.compile(
                    source, allocator="linearscan", filename=name
                )["ok"]

                # Leave a compile in flight when the signal lands.
                def in_flight():
                    try:
                        answers.append(
                            client.compile(
                                MIX[1][1],
                                allocator="rap",
                                filename=MIX[1][0],
                            )
                        )
                    except ServiceError as err:
                        answers.append({"ok": False, "kind": err.kind})

                worker = threading.Thread(target=in_flight, daemon=True)
                worker.start()
                time.sleep(0.15)
                daemon.send_signal(signal.SIGTERM)
                worker.join(timeout=30)
            output, _ = daemon.communicate(timeout=30)
            assert daemon.returncode == 0
            assert "drained; bye" in output
            # The in-flight compile was answered, not dropped.
            assert len(answers) == 1
            assert answers[0].get("ok"), answers[0]
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=10)
