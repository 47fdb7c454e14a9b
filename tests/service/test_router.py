"""The consistent-hash router: ring math, forwarding, replica-set
dispatch, failover under a backend kill, warm-affinity byte identity,
and stats aggregation."""

import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.service.client import RETRYABLE_KINDS, ServiceClient, ServiceError
from repro.service.loadgen import run_loadgen
from repro.service.router import (
    Backend,
    HashRing,
    RouterServer,
    RouterService,
    affinity_key,
    _parse_backend,
)
from repro.service.server import CompileServer, CompileService

SOURCES = [
    f"int main() {{ int x; x = {n}; print(x + {n}); return 0; }}\n"
    for n in range(8)
]


def _start_backend(**kwargs):
    kwargs.setdefault("workers", 2)
    service = CompileService(**kwargs)
    server = CompileServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]


def _stop_backend(server):
    server.service.drain(timeout=5.0)
    server.shutdown()
    server.server_close()


#: Services of hard-killed backends, reaped after each test.
_KILLED = []


def _kill_backend(server):
    """Hard stop: no drain, sockets torn down — the failover scenario.
    The worker pool lives on until the test's assertions are done."""
    server.shutdown()
    server.server_close()
    _KILLED.append(server.service)


@pytest.fixture(autouse=True)
def _reap_killed_backends():
    """Drain every pool a test killed the listener of, so its worker
    children do not outlive the test."""
    yield
    while _KILLED:
        _KILLED.pop().drain(timeout=5.0)


@pytest.fixture
def pair():
    """Two live backends and a RouterService over them (no router TCP:
    handler-level tests call ``router.handle`` directly)."""
    servers = [_start_backend() for _ in range(2)]
    backends = [("127.0.0.1", port) for _, port in servers]
    router = RouterService(backends, probe_interval_s=0.1, probe_failures=2)
    yield router, [server for server, _ in servers]
    router.stop()
    for server, _ in servers:
        try:
            _stop_backend(server)
        except Exception:
            pass


class TestHashRing:
    NODES = ["10.0.0.1:9363", "10.0.0.2:9363", "10.0.0.3:9363"]

    def test_deterministic(self):
        ring = HashRing(self.NODES, vnodes=32)
        again = HashRing(self.NODES, vnodes=32)
        for i in range(100):
            assert ring.primary(f"key-{i}") == again.primary(f"key-{i}")

    def test_distribution_covers_every_node(self):
        ring = HashRing(self.NODES, vnodes=64)
        owners = {ring.primary(f"key-{i}") for i in range(300)}
        assert owners == set(self.NODES)

    def test_successors_visit_every_node_once(self):
        ring = HashRing(self.NODES, vnodes=16)
        order = list(ring.successors("some-key"))
        assert sorted(order) == sorted(self.NODES)
        assert len(set(order)) == len(self.NODES)

    def test_removal_moves_only_the_lost_arcs(self):
        # The consistent-hashing property: dropping one node must not
        # reshuffle keys owned by the survivors.
        full = HashRing(self.NODES, vnodes=64)
        reduced = HashRing(self.NODES[:-1], vnodes=64)
        moved = stayed = 0
        for i in range(400):
            key = f"key-{i}"
            before = full.primary(key)
            after = reduced.primary(key)
            if before == self.NODES[-1]:
                assert after in self.NODES[:-1]  # reassigned somewhere live
            elif before == after:
                stayed += 1
            else:
                moved += 1
        assert moved == 0 and stayed > 0

    def test_failover_order_matches_ring_successor(self):
        ring = HashRing(self.NODES, vnodes=16)
        key = "the-key"
        order = list(ring.successors(key))
        assert order[0] == ring.primary(key)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(self.NODES, vnodes=0)

    def test_affinity_key_ignores_deadline(self):
        # Same request at different deadlines must land on the same
        # backend: the deadline orders the backend's queue and is not
        # part of the artifact.
        base = {"op": "compile", "source": "x", "allocator": "rap", "k": 5}
        with_deadline = dict(base, deadline_ms=100.0)
        assert affinity_key(base) == affinity_key(with_deadline)
        assert affinity_key(base) != affinity_key(dict(base, source="y"))

    def test_parse_backend(self):
        assert _parse_backend("127.0.0.1:9363") == ("127.0.0.1", 9363)
        for bad in ("no-port", "host:", ":1234x", "host:port"):
            with pytest.raises(ValueError):
                _parse_backend(bad)


class TestRouting:
    def test_ping_and_unknown_op_answer_locally(self, pair):
        router, _ = pair
        pong = router.handle({"op": "ping"})
        assert pong["ok"] and pong["router"] and pong["backends_total"] == 2
        bad = router.handle({"op": "nope"})
        assert not bad["ok"] and bad["error"]["kind"] == "request"

    def test_forwarding_and_warm_affinity(self, pair):
        router, _ = pair
        request = {"op": "compile", "source": SOURCES[0], "allocator": "rap",
                   "k": 5, "filename": "t0"}
        cold = router.handle(dict(request))
        assert cold["ok"] and cold["cache"] == "miss"
        assert cold["router_failovers"] == 0
        warm = router.handle(dict(request))
        assert warm["ok"] and warm["cache"] == "hit"
        # Affinity: the repeat hit the same backend's cache.
        assert warm["backend"] == cold["backend"]
        assert warm["image_sha256"] == cold["image_sha256"]

    def test_spread_across_backends(self, pair):
        # The ring hashes the backends' ephemeral ports, so placement
        # changes run to run: 8 keys all land on one of two backends in
        # about 2% of port pairs, 16 keys in about 0.04%.
        router, _ = pair
        used = set()
        for i, source in enumerate(SOURCES):
            for k in (3, 5):
                response = router.handle(
                    {"op": "compile", "source": source, "allocator": "rap",
                     "k": k, "filename": f"t{i}"}
                )
                assert response["ok"]
                used.add(response["backend"])
        assert len(used) == 2  # 16 distinct keys land on both backends

    def test_server_answered_errors_pass_through(self, pair):
        router, _ = pair
        response = router.handle(
            {"op": "compile", "source": "", "allocator": "rap", "k": 5}
        )
        assert not response["ok"]
        assert response["error"]["kind"] == "request"  # not no-backend

    def test_malformed_deadline_is_a_request_error_not_no_backend(self, pair):
        # A request that can never succeed must not look retryable, nor
        # count as failovers against healthy backends.
        router, _ = pair
        base = {"op": "compile", "source": SOURCES[0], "allocator": "rap",
                "k": 5}
        for bad in ({"deadline_ms": "soon"}, {"deadline_ms": [1]},
                    {"k": 2}, {"k": "x"}):
            response = router.handle(dict(base, **bad))
            assert not response["ok"]
            assert response["error"]["kind"] == "request"
            assert response["router_failovers"] == 0
        assert all(
            backend.snapshot()["failed"] == 0
            for backend in router.backends.values()
        )

    def test_stats_aggregation(self, pair):
        router, _ = pair
        for i, source in enumerate(SOURCES[:4]):
            router.handle(
                {"op": "compile", "source": source, "allocator": "rap",
                 "k": 5, "filename": f"t{i}"}
            )
            router.handle(
                {"op": "compile", "source": source, "allocator": "rap",
                 "k": 5, "filename": f"t{i}"}
            )
        stats = router.handle({"op": "stats"})
        assert stats["ok"]
        assert stats["router"]["forwarded"] == 8
        assert len(stats["backends"]) == 2
        assert all("stats" in snap for snap in stats["backends"])
        # The aggregate equals the sum over backend caches.
        summed = sum(
            snap["stats"]["cache"]["hits"] for snap in stats["backends"]
        )
        assert stats["cache"]["hits"] == summed == 4
        assert stats["cache"]["misses"] == 4
        assert stats["cache"]["corrupt"] == 0


def _request(index, k=5):
    return {"op": "compile", "source": SOURCES[index], "allocator": "rap",
            "k": k, "filename": f"t{index}"}


def _keys_owned_by(router, name, count):
    """``count`` distinct requests whose ring primary is ``name``."""
    found = [
        _request(index, k)
        for index in range(len(SOURCES))
        for k in range(3, 8)
        if router.ring.primary(affinity_key(_request(index, k))) == name
    ]
    assert len(found) >= count, f"only {len(found)} keys land on {name}"
    return found[:count]


def _server_named(servers, name):
    port = int(name.rsplit(":", 1)[1])
    return next(s for s in servers if s.server_address[1] == port)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@contextmanager
def _held_busy(router, servers, name, request, delay_s=1.0):
    """Keep backend ``name`` busy: its worker stalls ``delay_s`` per job
    (``worker_delay_s``) while ``request`` — which must route to it —
    is forwarded from a background thread.  Yields once the router
    counts that request in flight; on exit waits for its answer."""
    service = _server_named(servers, name).service
    service.worker_delay_s = delay_s
    answers = []
    blocker = threading.Thread(
        target=lambda: answers.append(router.handle(dict(request)))
    )
    blocker.start()
    try:
        _wait_until(lambda: router.backends[name].in_flight == 1)
        yield
    finally:
        blocker.join()
        service.worker_delay_s = 0.0
    assert answers[0]["ok"] and answers[0]["backend"] == name


class TestReplicaSetDispatch:
    """R=2 over two backends: both hold every key, so a compile goes to
    whichever healthy replica has fewer requests in flight; ties keep
    ring order."""

    def _split(self, router, request):
        primary = router.ring.primary(affinity_key(request))
        other = next(name for name in router.backends if name != primary)
        return primary, other

    def test_sequential_requests_reach_the_ring_primary(self, pair):
        router, _ = pair
        for _ in ("cold", "warm"):
            for index in range(len(SOURCES)):
                request = _request(index)
                response = router.handle(dict(request))
                assert response["ok"]
                assert response["backend"] == router.ring.primary(
                    affinity_key(request)
                )

    def test_busy_primary_sends_a_warm_key_to_the_other_replica(self, pair):
        router, servers = pair
        request = _request(0)
        primary, other = self._split(router, request)
        cold = router.handle(dict(request))
        assert cold["backend"] == primary and cold["cache"] == "miss"
        with _held_busy(router, servers, primary, request):
            warm = router.handle(dict(request))
        assert warm["ok"] and warm["cache"] == "hit"
        assert warm["backend"] == other
        assert warm["image_sha256"] == cold["image_sha256"]

    def test_cold_key_compiles_on_the_idle_replica_and_writes_through(
        self, pair
    ):
        router, servers = pair
        primary, other = self._split(router, _request(0))
        blocker, fresh = _keys_owned_by(router, primary, 2)
        assert router.handle(dict(blocker))["ok"]  # warm: no write later
        writes = router.handle({"op": "stats"})["router"]["replica_writes"]
        with _held_busy(router, servers, primary, blocker):
            cold = router.handle(dict(fresh))
        assert cold["ok"] and cold["cache"] == "miss"
        assert cold["backend"] == other
        stats = router.handle({"op": "stats"})
        assert stats["router"]["replica_writes"] == writes + 1
        repeat = router.handle(dict(fresh))
        assert repeat["backend"] == primary and repeat["cache"] == "hit"
        assert repeat["image_sha256"] == cold["image_sha256"]

    def test_concurrent_cold_requests_for_one_key_agree(self, pair):
        router, _ = pair
        request = _request(3)
        barrier = threading.Barrier(2)
        answers = []

        def send():
            barrier.wait()
            answers.append(router.handle(dict(request)))

        threads = [threading.Thread(target=send) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(answer["ok"] for answer in answers), answers
        assert answers[0]["image_sha256"] == answers[1]["image_sha256"]

    def test_replication_one_ignores_load(self, pair):
        _, servers = pair
        router = RouterService(
            [("127.0.0.1", s.server_address[1]) for s in servers],
            probe_interval_s=30.0, probe_failures=2, replication=1,
        )
        request = _request(1)
        primary, _ = self._split(router, request)
        with router.backends[primary].forwarding():
            response = router.handle(dict(request))
        assert response["ok"] and response["backend"] == primary

    def test_unhealthy_replica_is_never_preferred(self, pair):
        router, _ = pair
        request = _request(2)
        primary, other = self._split(router, request)
        for _ in range(router.probe_failures):
            router.backends[other].note_failure(router.probe_failures)
        assert not router.backends[other].healthy
        with router.backends[primary].forwarding():
            response = router.handle(dict(request))
        assert response["ok"] and response["backend"] == primary

    def test_in_flight_released_after_failover(self, pair):
        router, servers = pair
        request = _request(4)
        primary, other = self._split(router, request)
        _kill_backend(_server_named(servers, primary))
        response = router.handle(dict(request))
        assert response["ok"] and response["backend"] == other
        assert response["router_failovers"] == 1
        stats = router.handle({"op": "stats"})
        assert [b["in_flight"] for b in stats["backends"]] == [0, 0]

    def test_in_flight_released_after_exceptions(self, pair, monkeypatch):
        router, _ = pair
        request = _request(5)

        def protocol_error(*args, **kwargs):
            raise ServiceError({"kind": "protocol", "message": "garbage"})

        monkeypatch.setattr(router, "_compile_with_replication", protocol_error)
        response = router.handle(dict(request))
        assert response["error"]["kind"] == "protocol"

        def bug(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(router, "_compile_with_replication", bug)
        with pytest.raises(RuntimeError):
            router.handle(dict(request))
        assert all(b.in_flight == 0 for b in router.backends.values())


class TestFailover:
    def test_backend_kill_fails_over_to_ring_successor(self, pair):
        router, servers = pair
        # Find a request whose primary is backend 0, then kill backend 0.
        victim = list(router.backends)[0]
        request = None
        for i, source in enumerate(SOURCES):
            candidate = {"op": "compile", "source": source,
                         "allocator": "rap", "k": 5, "filename": f"t{i}"}
            if router.ring.primary(affinity_key(candidate)) == victim:
                request = candidate
                break
        assert request is not None
        victim_index = [
            i for i, server in enumerate(servers)
            if f"127.0.0.1:{server.server_address[1]}" == victim
        ][0]
        _kill_backend(servers[victim_index])

        response = router.handle(dict(request))
        assert response["ok"], response
        assert response["router_failovers"] >= 1
        assert response["backend"] != victim
        # The failed forward counted against the victim's health ledger.
        assert router.backends[victim].snapshot()["failed"] >= 1

    def test_all_backends_down_is_typed_no_backend(self):
        servers = [_start_backend() for _ in range(2)]
        backends = [("127.0.0.1", port) for _, port in servers]
        router = RouterService(backends, probe_interval_s=30.0,
                               probe_failures=1)
        for server, _ in servers:
            _kill_backend(server)
        try:
            response = router.handle(
                {"op": "compile", "source": SOURCES[0], "allocator": "rap",
                 "k": 5}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "no-backend"
            assert "no-backend" in RETRYABLE_KINDS  # clients may retry it
        finally:
            router.stop()

    def test_probe_marks_dead_backend_unhealthy_then_skips_it(self, pair):
        router, servers = pair
        victim = list(router.backends)[0]
        victim_index = [
            i for i, server in enumerate(servers)
            if f"127.0.0.1:{server.server_address[1]}" == victim
        ][0]
        _kill_backend(servers[victim_index])
        backend = router.backends[victim]
        for _ in range(router.probe_failures):
            assert router.probe(backend) is False
        assert backend.healthy is False
        # Every request now routes straight to the survivor: no failover
        # hops, all answered.
        for i, source in enumerate(SOURCES):
            response = router.handle(
                {"op": "compile", "source": source, "allocator": "rap",
                 "k": 5, "filename": f"t{i}"}
            )
            assert response["ok"]
            assert response["backend"] != victim
            assert response["router_failovers"] == 0

    def test_probe_recovery_restores_health(self):
        server, port = _start_backend()
        try:
            router = RouterService(
                [("127.0.0.1", port)], probe_interval_s=30.0,
                probe_failures=1,
            )
            backend = router.backends[f"127.0.0.1:{port}"]
            backend.note_failure(1)  # knocked unhealthy
            assert backend.healthy is False
            assert router.probe(backend) is True
            assert backend.healthy is True
            router.stop()
        finally:
            _stop_backend(server)


class TestEndToEndTCP:
    """The full stack: loadgen -> router TCP -> 2 backend daemons."""

    def _start(self, servers):
        backends = [
            ("127.0.0.1", server.server_address[1]) for server in servers
        ]
        router = RouterService(backends, probe_interval_s=0.1,
                               probe_failures=2)
        router_server = RouterServer(("127.0.0.1", 0), router)
        thread = threading.Thread(
            target=router_server.serve_forever, daemon=True
        )
        thread.start()
        return router_server, router_server.server_address[1]

    def test_loadgen_through_router_with_midrun_kill(self):
        # The acceptance scenario: full mix through the router, one
        # backend killed mid-run, zero lost requests (every admitted
        # request gets exactly one typed answer), and warm artifacts
        # byte-identical to a single-daemon run of the same mix.
        servers = [_start_backend()[0] for _ in range(2)]
        router_server, router_port = self._start(servers)
        mix = [(f"t{i}", source) for i, source in enumerate(SOURCES)]
        try:
            cold = run_loadgen(
                port=router_port, requests=16, workers=2, mix=mix, retries=3
            )
            assert cold.unanswered == 0 and cold.errors == 0
            assert cold.mismatches == 0

            killer = threading.Timer(
                0.05, lambda: _kill_backend(servers[0])
            )
            killer.start()
            warm = run_loadgen(
                port=router_port, requests=32, workers=4, mix=mix, retries=3
            )
            killer.join()
            # Zero lost requests under the kill: every request answered,
            # determinism intact.
            assert warm.unanswered == 0, warm.error_kinds
            assert warm.mismatches == 0

            # Surviving-backend artifacts byte-identical to a
            # single-daemon run of the same mix.
            solo_server, solo_port = _start_backend()
            try:
                solo = run_loadgen(
                    port=solo_port, requests=16, workers=2, mix=mix
                )
                for key, sha in warm.artifacts.items():
                    assert solo.artifacts.get(key, sha) == sha
                overlap = set(warm.artifacts) & set(solo.artifacts)
                assert overlap  # the comparison actually compared keys
            finally:
                _stop_backend(solo_server)
        finally:
            router_server.router.stop()
            router_server.shutdown()
            router_server.server_close()
            for server in servers[1:]:
                try:
                    _stop_backend(server)
                except Exception:
                    pass

    def test_service_client_speaks_to_router_unchanged(self):
        servers = [_start_backend()[0] for _ in range(2)]
        router_server, router_port = self._start(servers)
        try:
            with ServiceClient("127.0.0.1", router_port) as client:
                assert client.ping() is True
                response = client.compile(SOURCES[0], filename="t0")
                assert response["ok"] and "backend" in response
                stats = client.stats()
                assert stats["router"]["forwarded"] >= 1
        finally:
            router_server.router.stop()
            router_server.shutdown()
            router_server.server_close()
            for server in servers:
                _stop_backend(server)


class TestBackendLedger:
    def test_counters_and_snapshot(self):
        backend = Backend("127.0.0.1", 9999)
        assert backend.healthy
        backend.note_failure(2, forwarding=True)
        assert backend.healthy  # one strike, threshold two
        backend.note_failure(2)
        assert not backend.healthy
        backend.note_routed()
        assert backend.healthy  # success restores
        snap = backend.snapshot()
        assert snap["routed"] == 1 and snap["failed"] == 1
        assert snap["name"] == "127.0.0.1:9999"
        assert snap["in_flight"] == 0
        with backend.forwarding():
            assert backend.snapshot()["in_flight"] == 1
        assert backend.in_flight == 0


class TestRouterLimits:
    """A probe interval of zero or below makes the prober spin without
    sleeping; NaN never elapses; zero probe failures or a replication
    factor below one describe no ring at all."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("probe_interval_s", 0, "probe_interval_s must be finite and positive"),
            ("probe_interval_s", -1.0, "probe_interval_s must be finite"),
            ("probe_interval_s", float("nan"), "probe_interval_s must be finite"),
            ("timeout", 0, "timeout must be finite and positive"),
            ("timeout", float("inf"), "timeout must be finite and positive"),
            ("probe_failures", 0, "probe_failures must be at least 1"),
            ("replication", -3, "replication must be at least 1"),
        ],
    )
    def test_router_service_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RouterService([("127.0.0.1", 1)], **{field: value})

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--probe-interval", "0", "--probe-interval must be finite and positive"),
            ("--probe-interval", "nan", "--probe-interval must be finite"),
            ("--timeout", "-1", "--timeout must be finite and positive"),
            ("--probe-failures", "0", "--probe-failures must be at least 1"),
            ("--replication", "-3", "--replication must be at least 1"),
        ],
        ids=[
            "probe-interval-0",
            "probe-interval-nan",
            "timeout-negative",
            "probe-failures-0",
            "replication-negative",
        ],
    )
    def test_router_cli_rejects(self, flag, value, message):
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "router", "--port", "0",
             "--backend", "127.0.0.1:1", flag, value],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert done.returncode == 2
        assert message in done.stderr
