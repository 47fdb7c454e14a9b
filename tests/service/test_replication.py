"""The replicated artifact store and live ring membership: cache wire
ops, write-through replication, zero-warm-loss failover, read-repair
(also of a replica that was down during write-through), admin
membership ops, and the full-ring-outage story."""

import base64
import hashlib
import threading
import time
import zlib

import pytest

from repro.service import defaults
from repro.service.admin import build_admin_parser, _parse_address
from repro.service.client import (
    RETRYABLE_KINDS,
    ServiceClient,
    ServiceError,
    connect_with_retry,
)
from repro.service.router import HashRing, RouterService, affinity_key
from repro.service.server import CompileServer, CompileService

SOURCES = [
    f"int main() {{ int x; x = {n}; print(x + {n}); return 0; }}\n"
    for n in range(8)
]


def _compile_request(source, tag="t"):
    return {"op": "compile", "source": source, "allocator": "rap", "k": 5,
            "filename": tag}


def _start_backend(port=0, **kwargs):
    kwargs.setdefault("workers", 2)
    service = CompileService(**kwargs)
    server = CompileServer(("127.0.0.1", port), service)
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


def _make_router(servers, replication=2, **kwargs):
    kwargs.setdefault("probe_interval_s", 30.0)  # probes driven by hand
    kwargs.setdefault("probe_failures", 2)
    backends = [("127.0.0.1", server.server_address[1]) for server in servers]
    return RouterService(backends, replication=replication, **kwargs)


def _mark_unhealthy(router, name):
    backend = router.backends[name]
    for _ in range(router.probe_failures):
        router.probe(backend)
    assert backend.healthy is False


@pytest.fixture
def trio():
    """Three live backends and an R=2 router over them."""
    servers = [_start_backend()[0] for _ in range(3)]
    router = _make_router(servers, replication=2)
    yield router, servers
    router.stop()
    for server in servers:
        try:
            _stop_backend(server)
        except Exception:
            pass


def _backend_for(router, name):
    """The in-process CompileService behind a roster name."""
    return router.backends[name]


def _service_at(servers, name):
    port = int(name.rsplit(":", 1)[1])
    for server in servers:
        if server.server_address[1] == port:
            return server.service
    raise AssertionError(f"no server at {name}")


# ----------------------------------------------------------------------------
# The cache wire ops (cache-get / cache-put, warm_only)
# ----------------------------------------------------------------------------


class TestCacheOps:
    def test_put_get_roundtrip(self):
        server, port = _start_backend()
        try:
            service = server.service
            cold = service.submit(_compile_request(SOURCES[0]))
            assert cold["ok"] and cold["cache"] == "miss"
            key = cold["key"]
            got = service.submit({"op": "cache-get", "key": key})
            assert got["ok"] and got["op"] == "cache-get"
            assert got["meta"]["image_sha256"] == cold["image_sha256"]

            # Round-trip into a second, empty backend.
            other, _ = _start_backend()
            try:
                put = other.service.submit(
                    {"op": "cache-put", "key": key,
                     "blob": got["blob"], "meta": got["meta"]}
                )
                assert put["ok"] and put["op"] == "cache-put"
                # The receiving backend now answers the compile warm,
                # byte-identical.
                warm = other.service.submit(_compile_request(SOURCES[0]))
                assert warm["ok"] and warm["cache"] == "hit"
                assert warm["image_sha256"] == cold["image_sha256"]
                assert warm["output"] == cold["output"]
            finally:
                _stop_backend(other)
        finally:
            _stop_backend(server)

    def test_get_miss_is_typed_replica_miss(self):
        server, _ = _start_backend()
        try:
            miss = server.service.submit(
                {"op": "cache-get", "key": "f" * 64}
            )
            assert not miss["ok"]
            assert miss["error"]["kind"] == "replica-miss"
            assert miss["key"] == "f" * 64  # top-level, for the router
            # Deliberately NOT client-retryable: it is a protocol answer
            # to the router, not a transient fault.
            assert "replica-miss" not in RETRYABLE_KINDS
        finally:
            _stop_backend(server)

    def test_put_refuses_checksum_mismatch(self):
        server, _ = _start_backend()
        try:
            forged = base64.b64encode(zlib.compress(b'{"forged":true}'))
            refused = server.service.submit(
                {"op": "cache-put", "key": "a" * 64,
                 "blob": forged.decode(),
                 "meta": {"image_sha256": "0" * 64}}
            )
            assert not refused["ok"]
            assert refused["error"]["kind"] == "request"
            # Nothing was installed.
            still = server.service.submit({"op": "cache-get", "key": "a" * 64})
            assert not still["ok"]
        finally:
            _stop_backend(server)

    @pytest.mark.parametrize(
        "blob",
        [
            "not base64!",
            "{\"version\": 1}",
            base64.b64encode(b"not a deflate stream").decode(),
            base64.b64encode(zlib.compress(b'{"version":1}')[:-3]).decode(),
            base64.b64encode(
                zlib.compress(b'{"version":1}' + b" " * 5_000)
            ).decode(),
        ],
        ids=["bad-base64", "json-text", "bad-deflate", "truncated", "past-bound"],
    )
    def test_put_refuses_an_undecodable_blob(self, monkeypatch, blob):
        monkeypatch.setattr(defaults, "CACHE_BYTES", 1_000)
        server, _ = _start_backend()
        try:
            # A decode failure answers "bad blob"; a well-formed blob
            # whose hash differs would get the mismatch message instead.
            meta = {"image_sha256": hashlib.sha256(b'{"version":1}').hexdigest()}
            refused = server.service.submit(
                {"op": "cache-put", "key": "a" * 64, "blob": blob, "meta": meta}
            )
            assert not refused["ok"]
            assert refused["error"]["kind"] == "request"
            assert "bad blob" in refused["error"]["message"]
            still = server.service.submit({"op": "cache-get", "key": "a" * 64})
            assert not still["ok"]
            assert server.service.cache.stats()["entries"] == 0
        finally:
            _stop_backend(server)

    def test_warm_only_probe(self):
        server, _ = _start_backend()
        try:
            service = server.service
            request = _compile_request(SOURCES[1])
            probe = dict(request, warm_only=True)
            cold = service.submit(dict(probe))
            assert not cold["ok"]
            assert cold["error"]["kind"] == "replica-miss"
            assert cold["cache"] == "miss"
            assert isinstance(cold["key"], str) and cold["key"]
            # The probe did not compile anything.
            assert service.submit({"op": "stats"})["cache"]["entries"] == 0
            # Warm it, and the same probe answers as a plain hit.
            assert service.submit(dict(request))["ok"]
            warm = service.submit(dict(probe))
            assert warm["ok"] and warm["cache"] == "hit"
        finally:
            _stop_backend(server)

    def test_probed_resend_is_accounting_neutral(self, trio):
        # One cold request through the replicating router must count
        # exactly one miss, and one warm request exactly one hit — the
        # probe/re-send dance and the write-through reads are plumbing.
        router, _ = trio
        request = _compile_request(SOURCES[2])
        assert router.handle(dict(request))["ok"]
        assert router.handle(dict(request))["ok"]
        stats = router.handle({"op": "stats"})
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] == 1


# ----------------------------------------------------------------------------
# Write-through replication and failover
# ----------------------------------------------------------------------------


class TestReplication:
    def test_cold_compile_writes_through_to_replica(self, trio):
        router, servers = trio
        request = _compile_request(SOURCES[0])
        cold = router.handle(dict(request))
        assert cold["ok"] and cold["cache"] == "miss"
        replicas = router.ring.replicas(affinity_key(request), 2)
        assert cold["backend"] == replicas[0]
        # Both replica-set members hold the artifact, byte-identical.
        for name in replicas:
            got = _service_at(servers, name).submit(
                {"op": "cache-get", "key": cold["key"]}
            )
            assert got["ok"], f"{name} does not hold the artifact"
            assert got["meta"]["image_sha256"] == cold["image_sha256"]
        stats = router.handle({"op": "stats"})
        assert stats["router"]["replica_writes"] >= 1

    def test_zero_warm_loss_failover(self, trio):
        """ISSUE acceptance: kill any single backend mid-load; zero lost
        requests and a >= 90% post-failover warm rate for keys that were
        warm before the kill (with R=2 write-through it is in fact
        100%, and byte-identical)."""
        router, servers = trio
        baseline = {}
        for i, source in enumerate(SOURCES):
            response = router.handle(_compile_request(source, f"t{i}"))
            assert response["ok"]
            baseline[source] = response["image_sha256"]

        victim = list(router.backends)[0]
        _kill_backend(servers[[
            i for i, server in enumerate(servers)
            if f"127.0.0.1:{server.server_address[1]}" == victim
        ][0]])
        _mark_unhealthy(router, victim)

        answered = warm = 0
        for i, source in enumerate(SOURCES):
            response = router.handle(_compile_request(source, f"t{i}"))
            assert response["ok"], response  # zero lost requests
            assert response["backend"] != victim
            assert response["image_sha256"] == baseline[source]
            answered += 1
            if response["cache"] == "hit":
                warm += 1
        assert answered == len(SOURCES)
        assert warm / answered >= 0.9, f"warm rate {warm}/{answered}"
        assert warm == answered  # R=2: every previously-warm key survives

    def test_read_repair_restores_a_lost_primary_copy(self, trio):
        router, servers = trio
        request = _compile_request(SOURCES[3])
        cold = router.handle(dict(request))
        assert cold["ok"]
        primary = cold["backend"]
        # Surgically lose the primary's copy (simulates a restarted
        # daemon with a cold cache, without bouncing the port).
        _service_at(servers, primary).cache.clear()
        repaired = router.handle(dict(request))
        assert repaired["ok"]
        assert repaired["backend"] == primary
        # Repaired from the replica, answered warm — not recompiled.
        assert repaired["cache"] == "hit"
        assert repaired["image_sha256"] == cold["image_sha256"]
        stats = router.handle({"op": "stats"})
        assert stats["router"]["read_repairs"] >= 1

    def test_replica_down_during_write_through_is_read_repaired(self):
        """A replica that was down when a cold compile wrote through
        misses that write; once it is back, the first compile routed to
        it is read-repaired from the primary and answers warm."""
        servers = [_start_backend()[0] for _ in range(2)]
        router = _make_router(servers, replication=2)
        try:
            request = _compile_request(SOURCES[4])
            primary, replica = router.ring.replicas(affinity_key(request), 2)
            replica_index = [
                i for i, server in enumerate(servers)
                if f"127.0.0.1:{server.server_address[1]}" == replica
            ][0]
            port = servers[replica_index].server_address[1]
            _kill_backend(servers[replica_index])
            _mark_unhealthy(router, replica)

            cold = router.handle(dict(request))
            assert cold["ok"] and cold["cache"] == "miss"
            assert cold["backend"] == primary
            assert router.handle({"op": "stats"})["router"]["replica_writes"] == 0

            # The daemon comes back on the same port with an empty
            # cache, and the router sees it healthy again.
            servers[replica_index], _ = _start_backend(port=port)
            assert router.probe(router.backends[replica]) is True
            missing = servers[replica_index].service.submit(
                {"op": "cache-get", "key": cold["key"]}
            )
            assert missing["error"]["kind"] == "replica-miss"

            # Route the next compile to the replica: the primary stays
            # up (it is the repair source) but leaves the healthy set.
            for _ in range(router.probe_failures):
                router.backends[primary].note_failure(router.probe_failures)
            repaired = router.handle(dict(request))
            assert repaired["ok"], repaired
            assert repaired["backend"] == replica
            assert repaired["cache"] == "hit"
            assert repaired["image_sha256"] == cold["image_sha256"]
            assert repaired["output"] == cold["output"]
            stats = router.handle({"op": "stats"})
            assert stats["router"]["read_repairs"] >= 1
        finally:
            router.stop()
            for server in servers:
                try:
                    _stop_backend(server)
                except Exception:
                    pass


# ----------------------------------------------------------------------------
# Live membership: add / remove, generation fencing, ownership
# ----------------------------------------------------------------------------


class TestMembership:
    def test_add_joins_ring_and_routes(self, trio):
        router, servers = trio
        newcomer, port = _start_backend()
        servers.append(newcomer)
        generation = router.generation
        added = router.handle(
            {"op": "backend-add", "backend": f"127.0.0.1:{port}"}
        )
        assert added["ok"] and added["healthy"] is True
        assert added["ring_generation"] == generation + 1
        assert f"127.0.0.1:{port}" in router.ring.nodes
        # Enough keys land on 4 backends that the newcomer serves some.
        used = set()
        for i in range(24):
            response = router.handle(
                _compile_request(SOURCES[i % len(SOURCES)] + f"// v{i}\n")
            )
            assert response["ok"]
            used.add(response["backend"])
        assert f"127.0.0.1:{port}" in used

    def test_add_duplicate_refused(self, trio):
        router, _ = trio
        name = list(router.backends)[0]
        dup = router.handle({"op": "backend-add", "backend": name})
        assert not dup["ok"] and dup["error"]["kind"] == "request"

    def test_remove_drops_node_and_keeps_serving(self, trio):
        router, _ = trio
        victim = list(router.backends)[0]
        removed = router.handle({"op": "backend-remove", "backend": victim})
        assert removed["ok"]
        assert victim not in router.backends
        assert victim not in router.ring.nodes
        for i, source in enumerate(SOURCES):
            response = router.handle(_compile_request(source, f"t{i}"))
            assert response["ok"] and response["backend"] != victim

    def test_last_backend_cannot_be_removed(self):
        server, _ = _start_backend()
        router = _make_router([server], replication=2)
        try:
            name = list(router.backends)[0]
            refused = router.handle({"op": "backend-remove", "backend": name})
            assert not refused["ok"]
            assert refused["error"]["kind"] == "request"
            assert "last" in refused["error"]["message"]
            assert name in router.backends
        finally:
            router.stop()
            _stop_backend(server)

    def test_deleted_ops_are_typed_request_errors(self, trio):
        router, servers = trio
        name = list(router.backends)[0]
        refused = router.handle({"op": "backend-drain", "backend": name})
        assert not refused["ok"]
        assert refused["error"]["kind"] == "request"
        assert name in router.backends
        # Over the wire the backend answers too, and the connection
        # stays usable afterwards.
        with ServiceClient("127.0.0.1", servers[0].server_address[1]) as client:
            listing = client.request({"op": "cache-keys"})
            assert not listing["ok"]
            assert listing["error"]["kind"] == "request"
            assert client.ping()

    def test_generation_fencing(self, trio):
        router, _ = trio
        victim = list(router.backends)[0]
        generation = router.generation
        stale = router.handle(
            {"op": "backend-remove", "backend": victim,
             "expect_generation": generation + 7}
        )
        assert not stale["ok"]
        assert stale["error"]["kind"] == "ring-generation-skew"
        assert victim in router.backends  # refused before mutating
        # The matching generation passes the fence.
        fenced = router.handle(
            {"op": "backend-remove", "backend": victim,
             "expect_generation": generation}
        )
        assert fenced["ok"]

    def test_removed_backend_keys_stay_warm_by_read_repair(self, trio):
        router, servers = trio
        baseline = {}
        for i, source in enumerate(SOURCES):
            response = router.handle(_compile_request(source, f"t{i}"))
            assert response["ok"]
            baseline[source] = response["image_sha256"]
        # The victim is the ring primary of SOURCES[0], so after it
        # comes back that key is routed to it first.
        tracked = _compile_request(SOURCES[0], "t0")
        victim = router.ring.primary(affinity_key(tracked))
        removed = router.handle({"op": "backend-remove", "backend": victim})
        assert removed["ok"], removed
        assert victim not in router.backends
        # Every key was on two backends, so a survivor answers it warm.
        for i, source in enumerate(SOURCES):
            response = router.handle(_compile_request(source, f"t{i}"))
            assert response["ok"] and response["backend"] != victim
            assert response["cache"] == "hit"
            assert response["image_sha256"] == baseline[source]

        # Put the victim back with an empty cache, as after a restart.
        _service_at(servers, victim).cache.clear()
        added = router.handle({"op": "backend-add", "backend": victim})
        assert added["ok"] and added["healthy"] is True
        before = router.handle({"op": "stats"})["router"]["read_repairs"]
        again = router.handle(dict(tracked))
        after = router.handle({"op": "stats"})["router"]["read_repairs"]
        assert again["ok"] and again["backend"] == victim
        assert again["cache"] == "hit"
        assert again["image_sha256"] == baseline[SOURCES[0]]
        assert after > before

    def test_stats_report_ownership_shares(self, trio):
        router, _ = trio
        stats = router.handle({"op": "stats"})
        assert stats["ok"]
        assert stats["router"]["replication"] == 2
        assert stats["router"]["ring_generation"] == router.generation
        shares = {
            snap["name"]: snap["ring"] for snap in stats["backends"]
        }
        assert len(shares) == 3
        total_vnodes = sum(ring["vnodes"] for ring in shares.values())
        assert total_vnodes == defaults.ROUTER_VNODES * 3
        assert stats["router"]["vnodes"] == defaults.ROUTER_VNODES
        total_fraction = sum(
            ring["keyspace_fraction"] for ring in shares.values()
        )
        assert total_fraction == pytest.approx(1.0)
        for ring in shares.values():
            assert 0.0 < ring["keyspace_fraction"] < 1.0
        for counter in ("replica_writes", "read_repairs", "failovers"):
            assert counter in stats["router"]

    def test_ring_ownership_math(self):
        ring = HashRing(["a:1", "b:2", "c:3"], vnodes=64)
        ownership = ring.ownership()
        assert sum(o["vnodes"] for o in ownership.values()) == 192
        assert sum(
            o["keyspace_fraction"] for o in ownership.values()
        ) == pytest.approx(1.0)


# ----------------------------------------------------------------------------
# Full-ring outage and recovery (satellite S4)
# ----------------------------------------------------------------------------


class TestFullRingOutage:
    def test_no_backend_is_retryable_and_recovery_is_idempotent(self, tmp_path):
        from repro.service.cache import ArtifactCache

        server, port = _start_backend(
            cache=ArtifactCache(persist_dir=str(tmp_path))
        )
        router = _make_router([server], replication=2)
        try:
            request = _compile_request(SOURCES[5])
            cold = router.handle(dict(request))
            assert cold["ok"] and cold["cache"] == "miss"

            # The whole ring goes dark.  An in-thread kill closes the
            # listener but cannot reset already-established sockets the
            # way a dead process does, so sever the pooled client too.
            _kill_backend(server)
            _mark_unhealthy(router, f"127.0.0.1:{port}")
            router._drop_client(router.backends[f"127.0.0.1:{port}"])
            outage = router.handle(dict(request))
            assert not outage["ok"]
            assert outage["error"]["kind"] == "no-backend"
            assert "no-backend" in RETRYABLE_KINDS  # clients keep trying

            # The daemon restarts over the same disk tier; the next
            # probe readmits it and the request answers WARM — the cache
            # key made recovery idempotent, nothing recompiled.
            server, _ = _start_backend(
                port=port, cache=ArtifactCache(persist_dir=str(tmp_path))
            )
            assert router.probe(router.backends[f"127.0.0.1:{port}"]) is True
            recovered = router.handle(dict(request))
            assert recovered["ok"]
            assert recovered["cache"] == "hit"
            assert recovered["image_sha256"] == cold["image_sha256"]
        finally:
            router.stop()
            try:
                _stop_backend(server)
            except Exception:
                pass

    def test_connect_with_retry_rides_out_a_late_bind(self):
        placeholder, port = _start_backend()
        _kill_backend(placeholder)  # port known, nobody listening

        started = []

        def bind_later():
            time.sleep(0.3)
            started.append(_start_backend(port=port)[0])

        thread = threading.Thread(target=bind_later, daemon=True)
        thread.start()
        try:
            client = connect_with_retry(
                "127.0.0.1", port, timeout=5.0, retries=6, backoff=0.1
            )
            with client:
                assert client.checked({"op": "ping"})["ok"]
        finally:
            thread.join()
            for server in started:
                _stop_backend(server)

    def test_connect_with_retry_eventually_types_transport(self):
        placeholder, port = _start_backend()
        _kill_backend(placeholder)
        with pytest.raises(ServiceError) as excinfo:
            connect_with_retry(
                "127.0.0.1", port, timeout=0.5, retries=1, backoff=0.01
            )
        assert excinfo.value.kind == "transport"


# ----------------------------------------------------------------------------
# The admin CLI parser (the network paths are exercised by the drill)
# ----------------------------------------------------------------------------


class TestAdminCli:
    def test_parse_address(self):
        assert _parse_address("10.0.0.1:9363") == ("10.0.0.1", 9363)
        for bad in ("no-port", "host:", ":123x"):
            with pytest.raises(ValueError):
                _parse_address(bad)

    def test_parser_verbs_and_fencing_flag(self):
        parser = build_admin_parser()
        args = parser.parse_args(
            ["--expect-generation", "4", "remove", "127.0.0.1:9400"]
        )
        assert args.command == "remove"
        assert args.backend == "127.0.0.1:9400"
        assert args.expect_generation == 4
        assert parser.parse_args(["generation"]).command == "generation"
        with pytest.raises(SystemExit):
            parser.parse_args(["drain", "127.0.0.1:9400"])
