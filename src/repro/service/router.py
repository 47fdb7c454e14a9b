"""The consistent-hash front end: ``python -m repro router``.

One router process sits in front of N backend ``serve`` daemons and
speaks the same JSON-lines protocol on both sides, so every existing
client — :class:`~repro.service.client.ServiceClient`, ``repro
request``, ``repro loadgen`` — points at the router unchanged.

Routing
-------

Each compile request is hashed to a position on a sha256 ring
(:class:`HashRing`): every backend owns
:data:`~repro.service.defaults.ROUTER_VNODES` *virtual nodes* —
positions derived from ``sha256("host:port#i")`` — and a request lands
on the first virtual node at or after its own hash, wrapping at the
top.  Virtual nodes smooth the load split (a single node per backend
would partition the ring into a few large, uneven arcs), and
consistent hashing keeps the map stable under membership change:
removing a backend reassigns *only the arcs it owned*, so the other
backends' artifact caches stay warm — the property that makes compile
keys shardable across daemons at all.

The routing hash covers ``(source, allocator, k, schedule)`` — the
request identity, not the full artifact key.  The backend derives the
artifact key itself (folding in the execution fields and its code
fingerprint); the router only needs *affinity*: repeats of a request
reach a backend that already holds its artifact.

With replication ``R = 1`` that is the ring primary, always.  With
``R > 1`` every member of a key's replica set holds the artifact (see
Replication below), so each compile goes to the healthy replica-set
member with the fewest requests in flight — the "less-loaded of the
choices" rule (Mitzenmacher, *The Power of Two Choices in Randomized
Load Balancing*, IEEE TPDS 2001), where every choice is warm.  Ties keep
ring order, so sequential traffic still reaches the primary; concurrent
requests spread over the replicas instead of queueing behind one busy
backend while another sits idle.  In-flight counts are per router and
cover whole forwarding attempts (probe, read-repair, compile and
write-through).

Failover
--------

A forwarding failure whose kind is connection-shaped (``transport`` /
``timeout``, or a failed connect) moves the request to the next
backend in its attempt order — the other replica-set members first,
then the remaining ring successors.  Past the replica set warm affinity
is lost for that request, but it is answered.  Server-*answered* errors
(``admission``, a pipeline failure, ``poison-pill``…) are passed
through verbatim: the backend spoke, and the router does not
second-guess typed answers.
Forwarding to a possibly-dead backend can re-send a compile that
actually ran — safe for the same reason client retries are: compiles
are idempotent and artifacts content-addressed.  When every backend has
been tried the client gets a typed ``no-backend`` error (retryable:
backends respawn underneath a live router).

A background prober pings every backend each
:data:`~repro.service.defaults.ROUTER_PROBE_INTERVAL_S`;
:data:`~repro.service.defaults.ROUTER_PROBE_FAILURES` *consecutive*
failures — probes and forwarding failures both count — mark a backend
unhealthy, and unhealthy backends are skipped during routing (tried
last-resort only when no healthy backend remains).  One successful
probe restores health: a restarted backend starts taking its arcs back
within a probe interval, cold but correct.

Responses gain two router fields: ``backend`` (which daemon answered)
and ``router_failovers`` (ring hops this request took, 0 on the happy
path).  The ``stats`` op answers with router-level accounting plus each
backend's own live ``stats`` response and an aggregated cache summary —
one screen for the whole deployment (docs/OPERATIONS.md shows how to
read it).

Replication
-----------

Failover alone answers the request but pays a full recompile: the ring
successor never saw the key.  With replication factor
:data:`~repro.service.defaults.ROUTER_REPLICATION` ``R > 1`` the router
treats the first ``R`` distinct ring successors of a key as its
*replica set* and keeps every artifact on all of them:

* **Write-through** — after a cold compile, the router fetches the raw
  artifact (``cache-get``) from the compiling backend and installs it
  (``cache-put``) on the other replica-set members, so killing any one
  backend leaves every warm key warm somewhere reachable.
* **Read-repair** — a compile is first sent with ``warm_only``: a warm
  backend answers normally (the warm path stays one round trip), a cold
  one returns a typed ``replica-miss`` carrying the artifact key.  The
  router then copies the artifact from another replica-set member into
  the cold backend and re-sends the compile — a warm hit — falling back
  to a real compile only when no replica has the bytes.

A replica write aimed at a down backend is skipped, not queued:
read-repair restores that copy the first time the returned backend is
asked for the key.

Membership
----------

The backend set is not frozen at router start.  Two admin ops —
``backend-add`` and ``backend-remove``, sent by ``python -m repro
router-admin`` — mutate the ring under a generation counter: every
mutation bumps ``ring_generation``, and an op carrying
``expect_generation`` is refused with a typed ``ring-generation-skew``
error when the ring moved underneath the operator (two operators, one
ring: last writer does not silently win).  ``backend-remove`` takes a
backend off the ring and the roster at once; under ``R > 1`` the keys
it held are still cached on the rest of their replica sets, and
read-repair copies them onto whichever backend inherits the arc the
first time it misses.  Remove, restart, add is the rolling-restart
drill (``repro loadgen --rolling-restart``), which restarts every
backend in sequence under load with zero lost requests and a pinned
post-restart warm hit rate.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..digest import sha256
from . import defaults
from .client import (
    JsonLinesServer,
    ServiceClient,
    ServiceError,
    _error_payload,
    run_daemon,
)

#: Forwarding failures that mean "the backend did not answer" — only
#: these trigger failover; everything else is a real answer.
_FAILOVER_KINDS = frozenset({"transport", "timeout"})


def affinity_key(request: Dict[str, Any]) -> str:
    """The ring-position digest for one compile request: sha256 over the
    request identity (source, allocator, k, schedule).  Deliberately
    narrower than the artifact key — see the module docstring."""
    payload = {
        "source": request.get("source", ""),
        "allocator": request.get("allocator", defaults.ALLOCATOR),
        "k": request.get("k", defaults.K),
        "schedule": bool(request.get("schedule", False)),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


class HashRing:
    """A consistent-hash ring over named nodes with virtual nodes.

    Positions are the leading 64 bits of ``sha256(f"{node}#{i}")``.
    Lookup is a binary search over the sorted positions —
    O(log(nodes x vnodes)) per request, no locks (the ring is immutable
    after construction; membership *health* is tracked outside it).
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = defaults.ROUTER_VNODES):
        if not nodes:
            raise ValueError("ring needs at least one node")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.nodes = tuple(nodes)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                digest = sha256(f"{node}#{index}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), node))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [node for _, node in points]

    @staticmethod
    def _position(key: str) -> int:
        digest = sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def primary(self, key: str) -> str:
        """The node owning ``key``'s arc."""
        return next(self.successors(key))

    def successors(self, key: str) -> Iterator[str]:
        """Every node, in ring order from ``key``'s position, each
        yielded once — the failover sequence."""
        start = bisect.bisect_left(self._positions, self._position(key))
        seen = set()
        count = len(self._owners)
        for step in range(count):
            owner = self._owners[(start + step) % count]
            if owner not in seen:
                seen.add(owner)
                yield owner
                if len(seen) == len(self.nodes):
                    return

    def replicas(self, key: str, count: int) -> List[str]:
        """The first ``count`` distinct nodes in ring order from
        ``key``'s position — the replica set that should hold ``key``'s
        artifact (capped at the ring size)."""
        out: List[str] = []
        for node in self.successors(key):
            out.append(node)
            if len(out) >= count:
                break
        return out

    def ownership(self) -> Dict[str, Dict[str, Any]]:
        """Per-node ring share: virtual-node count and the fraction of
        the 64-bit keyspace whose arcs land on that node — the stats
        surface for 'is the load split still even?'."""
        total = 1 << 64
        shares = {
            node: {"vnodes": 0, "keyspace_fraction": 0.0}
            for node in self.nodes
        }
        arcs = {node: 0 for node in self.nodes}
        count = len(self._positions)
        for index, position in enumerate(self._positions):
            owner = self._owners[index]
            shares[owner]["vnodes"] += 1
            if count == 1:
                arcs[owner] = total
            else:
                arcs[owner] += (position - self._positions[index - 1]) % total
        for node in self.nodes:
            shares[node]["keyspace_fraction"] = arcs[node] / total
        return shares


class Backend:
    """One backend daemon: address, health, and routing counters."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.name = f"{host}:{port}"
        self._lock = threading.Lock()
        self._healthy = True
        self._consecutive_failures = 0
        self._in_flight = 0  # forwarding attempts under way right now
        self.routed = 0  # requests this backend answered
        self.failed = 0  # forwarding attempts it did not answer

    @property
    def healthy(self) -> bool:
        with self._lock:
            return self._healthy

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @contextmanager
    def forwarding(self) -> Iterator[None]:
        """Count one forwarding attempt as in flight for its duration,
        released on every exit path (answer, failover, exception)."""
        with self._lock:
            self._in_flight += 1
        try:
            yield
        finally:
            with self._lock:
                self._in_flight -= 1

    def note_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._healthy = True

    def note_failure(self, threshold: int, forwarding: bool = False) -> None:
        with self._lock:
            if forwarding:
                self.failed += 1
            self._consecutive_failures += 1
            if self._consecutive_failures >= threshold:
                self._healthy = False

    def note_routed(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._healthy = True
            self.routed += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "name": self.name,
                "healthy": self._healthy,
                "consecutive_failures": self._consecutive_failures,
                "routed": self.routed,
                "failed": self.failed,
                "in_flight": self._in_flight,
            }


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _parse_backend(spec: str) -> Tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"backend must be HOST:PORT, got {spec!r}")
    return host, int(port)


class RouterService:
    """The routing engine, socket-free (mirrors
    :class:`~repro.service.server.CompileService` below the TCP layer).

    Handler threads call :meth:`handle`; each keeps its own per-backend
    :class:`ServiceClient` in thread-local storage, so forwarding never
    serializes on a shared connection and a poisoned connection hurts
    only the thread that owns it.
    """

    def __init__(
        self,
        backends: Sequence[Tuple[str, int]],
        probe_interval_s: float = defaults.ROUTER_PROBE_INTERVAL_S,
        probe_failures: int = defaults.ROUTER_PROBE_FAILURES,
        timeout: float = defaults.CLIENT_TIMEOUT_S,
        replication: int = defaults.ROUTER_REPLICATION,
    ):
        if not backends:
            raise ValueError("router needs at least one backend")
        for name, value in (
            ("probe_interval_s", probe_interval_s),
            ("timeout", timeout),
        ):
            if not _positive_finite(value):
                # A zero wait makes the prober spin; NaN never elapses.
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name, value in (
            ("probe_failures", probe_failures),
            ("replication", replication),
        ):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        self.backends = {
            f"{host}:{port}": Backend(host, port) for host, port in backends
        }
        if len(self.backends) != len(backends):
            raise ValueError("duplicate backend address")
        self.ring = HashRing(sorted(self.backends))
        self.probe_interval_s = probe_interval_s
        self.probe_failures = probe_failures
        self.timeout = timeout
        self.replication = replication
        #: Guards ring swaps and membership mutation (never held across
        #: network I/O); the ring itself is immutable, so request paths
        #: just read ``self.ring`` once and work on that snapshot.
        self._ring_lock = threading.Lock()
        self.generation = 0
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._forwarded = 0
        self._failovers = 0
        self._no_backend = 0
        self._replica_writes = 0
        self._read_repairs = 0
        self._stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        self._started = time.monotonic()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._prober is not None:
            return
        self._prober = threading.Thread(
            target=self._probe_loop, name="router-prober", daemon=True
        )
        self._prober.start()

    def stop(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(self.probe_interval_s + 1.0)
            self._prober = None

    # -- health probing -------------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            for backend in list(self.backends.values()):
                self.probe(backend)

    def probe(self, backend: Backend) -> bool:
        """One liveness ping, on a short-lived connection so a wedged
        backend cannot pin the prober's socket."""
        try:
            with ServiceClient(
                backend.host, backend.port, timeout=self.probe_interval_s
            ) as client:
                alive = client.ping()
        except (ServiceError, OSError):
            alive = False
        if alive:
            backend.note_success()
        else:
            backend.note_failure(self.probe_failures)
        return alive

    # -- forwarding -----------------------------------------------------------

    def _client(self, backend: Backend) -> ServiceClient:
        clients = getattr(self._local, "clients", None)
        if clients is None:
            clients = self._local.clients = {}
        client = clients.get(backend.name)
        if client is None:
            client = ServiceClient(
                backend.host, backend.port, timeout=self.timeout
            )
            clients[backend.name] = client
        return client

    def _drop_client(self, backend: Backend) -> None:
        clients = getattr(self._local, "clients", None)
        if clients is not None:
            client = clients.pop(backend.name, None)
            if client is not None:
                client.close()

    def _count(self, counter: str, delta: int = 1) -> None:
        with self._counter_lock:
            setattr(self, f"_{counter}", getattr(self, f"_{counter}") + delta)

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request object to its answer — always returns,
        never raises (the exactly-one-typed-answer contract)."""
        self._count("requests")
        op = request.get("op")
        if op == "ping":
            healthy = sum(1 for b in self.backends.values() if b.healthy)
            return {
                "ok": True,
                "op": "ping",
                "router": True,
                "backends_healthy": healthy,
                "backends_total": len(self.backends),
            }
        if op == "stats":
            return self._stats_response()
        if op == "backend-add":
            return self.backend_add(request)
        if op == "backend-remove":
            return self.backend_remove(request)
        if op != "compile":
            return {
                "ok": False,
                "error": _error_payload("request", f"unknown op {op!r}"),
            }
        return self._forward(request)

    def _forward(self, request: Dict[str, Any]) -> Dict[str, Any]:
        ring = self.ring  # one immutable snapshot for the whole request
        affinity = affinity_key(request)
        order = [
            self.backends[name]
            for name in ring.successors(affinity)
            if name in self.backends
        ]
        if not order:
            self._count("no_backend")
            return {
                "ok": False,
                "router_failovers": 0,
                "error": _error_payload(
                    "no-backend",
                    "ring has no routable backends",
                    backends=sorted(self.backends),
                ),
            }
        replica_names = ring.replicas(affinity, self.replication)
        # The replica set is ownership, not health: a down replica's
        # write is skipped, not sent to a different replica.
        replicas = [
            self.backends[name]
            for name in replica_names
            if name in self.backends
        ]
        replicate = self.replication > 1 and len(order) > 1 and not request.get(
            "warm_only"
        )
        # Healthy backends first, in ring order; unhealthy ones only as
        # a last resort (the probe may simply not have noticed a
        # recovery yet).
        healthy = [b for b in order if b.healthy]
        attempts = healthy or order
        if replicate and healthy:
            # Every replica-set member holds the key's artifact, so the
            # least-busy healthy one goes first; the sort is stable, so
            # ties (and every sequential request) keep ring order.
            members = set(replica_names)
            preferred = sorted(
                (b for b in healthy if b.name in members),
                key=lambda b: b.in_flight,
            )
            attempts = preferred + [b for b in healthy if b.name not in members]
        failovers = 0
        for backend in attempts:
            try:
                with backend.forwarding():
                    if replicate:
                        response = self._compile_with_replication(
                            backend, request, replicas
                        )
                    else:
                        response = self._client(backend).request(request)
            except ServiceError as err:
                if err.kind not in _FAILOVER_KINDS:
                    # protocol: the backend answered garbage — surface
                    # it; replaying elsewhere hides a real bug.
                    return {"ok": False, "error": err.payload}
                self._drop_client(backend)
                backend.note_failure(self.probe_failures, forwarding=True)
                failovers += 1
                self._count("failovers")
                continue
            except OSError:
                # connect failed before a ServiceClient existed
                backend.note_failure(self.probe_failures, forwarding=True)
                failovers += 1
                self._count("failovers")
                continue
            backend.note_routed()
            self._count("forwarded")
            if isinstance(response, dict):
                response.setdefault("backend", backend.name)
                response["router_failovers"] = failovers
            return response
        self._count("no_backend")
        return {
            "ok": False,
            "router_failovers": failovers,
            "error": _error_payload(
                "no-backend",
                f"all {len(self.backends)} backends unreachable",
                backends=sorted(self.backends),
            ),
        }

    # -- the replication protocol ---------------------------------------------

    def _compile_with_replication(
        self,
        backend: Backend,
        request: Dict[str, Any],
        replicas: List[Backend],
    ) -> Dict[str, Any]:
        """One compile against one backend, replication-aware.

        Probe with ``warm_only`` first: a warm backend answers in the
        same single round trip as before.  On a ``replica-miss`` the
        artifact is read-repaired from another replica-set member when
        possible, then the real compile is sent — a warm hit after a
        successful repair, a cold compile otherwise — and cold results
        are written through to the rest of the replica set.  Transport
        failures propagate as :class:`ServiceError` so :meth:`_forward`
        applies its usual failover policy.
        """
        client = self._client(backend)
        probe = dict(request)
        probe["warm_only"] = True
        response = client.request(probe)
        error = response.get("error") or {}
        if response.get("ok") or error.get("kind") != "replica-miss":
            # Warm hit, or a real typed answer (poison-pill, bad
            # request...) that must not be masked by replication.
            return response
        key = response.get("key")
        if isinstance(key, str) and key:
            self._read_repair(backend, key, replicas)
        compile_request = dict(request)
        if isinstance(key, str) and key:
            # The probe already counted this request's hit-or-miss;
            # tell the backend not to count the re-sent lookup too.
            compile_request["probed"] = key
        response = client.request(compile_request)
        if response.get("ok") and response.get("cache") == "miss":
            self._replicate(backend, response.get("key"), replicas)
        return response

    def _read_repair(
        self, target: Backend, key: str, replicas: List[Backend]
    ) -> bool:
        """Copy ``key``'s artifact from any other replica-set member
        into ``target``.  True when the repair landed."""
        for source in replicas:
            if source.name == target.name:
                continue
            try:
                got = self._client(source).request(
                    {"op": "cache-get", "key": key}
                )
            except ServiceError as err:
                if err.kind in _FAILOVER_KINDS:
                    self._drop_client(source)
                    source.note_failure(self.probe_failures)
                continue
            except OSError:
                source.note_failure(self.probe_failures)
                continue
            if not got.get("ok"):
                continue  # not warm there either
            blob = got.get("blob")
            meta = got.get("meta")
            if not isinstance(blob, str) or not isinstance(meta, dict):
                continue
            try:
                put = self._client(target).request(
                    {"op": "cache-put", "key": key, "blob": blob, "meta": meta}
                )
            except (ServiceError, OSError):
                # The target is failing: the compile attempt that
                # follows will fail over through the normal path.
                return False
            if put.get("ok"):
                self._count("read_repairs")
                return True
        return False

    def _replicate(
        self, source: Backend, key: Any, replicas: List[Backend]
    ) -> None:
        """Write a freshly compiled artifact through from ``source`` to
        the rest of the replica set (down members are skipped)."""
        if not isinstance(key, str) or not key:
            return
        targets = [b for b in replicas if b.name != source.name]
        if not targets:
            return
        try:
            got = self._client(source).request({"op": "cache-get", "key": key})
        except (ServiceError, OSError):
            return
        if not got.get("ok"):
            # e.g. an artifact larger than the cache budget was never
            # cached at the source — nothing to replicate.
            return
        blob = got.get("blob")
        meta = got.get("meta")
        if not isinstance(blob, str) or not isinstance(meta, dict):
            return
        for target in targets:
            self._replica_put(target, key, blob, meta)

    def _replica_put(
        self, target: Backend, key: str, blob: str, meta: Dict[str, Any]
    ) -> bool:
        """Install raw artifact bytes on one replica.  A down replica is
        skipped: read-repair restores the copy on its next miss."""
        if not target.healthy:
            return False
        try:
            put = self._client(target).request(
                {"op": "cache-put", "key": key, "blob": blob, "meta": meta}
            )
        except ServiceError as err:
            if err.kind in _FAILOVER_KINDS:
                self._drop_client(target)
                target.note_failure(self.probe_failures)
            return False
        except OSError:
            target.note_failure(self.probe_failures)
            return False
        if put.get("ok"):
            self._count("replica_writes")
            return True
        return False

    # -- membership (the admin surface) ----------------------------------------

    def _generation_skew(
        self, request: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """CAS check, called under ``_ring_lock``: an admin op carrying
        ``expect_generation`` is refused when the ring moved."""
        expect = request.get("expect_generation")
        if expect is None:
            return None
        if not isinstance(expect, int) or isinstance(expect, bool):
            return {
                "ok": False,
                "ring_generation": self.generation,
                "error": _error_payload(
                    "request", "expect_generation must be an integer"
                ),
            }
        if expect != self.generation:
            return {
                "ok": False,
                "ring_generation": self.generation,
                "error": _error_payload(
                    "ring-generation-skew",
                    f"expected ring generation {expect}, "
                    f"ring is at {self.generation}",
                    ring_generation=self.generation,
                    expected=expect,
                ),
            }
        return None

    def _admin_error(self, kind: str, message: str) -> Dict[str, Any]:
        return {
            "ok": False,
            "ring_generation": self.generation,
            "error": _error_payload(kind, message),
        }

    def _rebuild_ring(self) -> None:
        """Swap in a new ring over the current backends and bump the
        generation.  Call under ``_ring_lock``."""
        self.ring = HashRing(sorted(self.backends))
        self.generation += 1

    def backend_add(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``backend-add``: put a new (or restarted) daemon on the ring.
        It starts taking its arcs immediately; read-repair warms it."""
        try:
            host, port = _parse_backend(str(request.get("backend") or ""))
        except ValueError as err:
            return self._admin_error("request", str(err))
        name = f"{host}:{port}"
        with self._ring_lock:
            skew = self._generation_skew(request)
            if skew is not None:
                return skew
            if name in self.backends:
                return self._admin_error(
                    "request", f"backend {name} already present"
                )
            backend = Backend(host, port)
            self.backends[name] = backend
            self._rebuild_ring()
            generation = self.generation
        # Probe outside the lock: routable now, not at the next
        # prober tick.
        self.probe(backend)
        return {
            "ok": True,
            "op": "backend-add",
            "backend": name,
            "healthy": backend.healthy,
            "ring_generation": generation,
        }

    def backend_remove(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``backend-remove``: drop a daemon from ring and roster at
        once.  Its cached artifacts leave with it; under ``R > 1`` the
        rest of each replica set still holds them, and read-repair
        copies them to the backend that inherits the arc."""
        name = str(request.get("backend") or "")
        with self._ring_lock:
            skew = self._generation_skew(request)
            if skew is not None:
                return skew
            if name not in self.backends:
                return self._admin_error("request", f"unknown backend {name!r}")
            if len(self.backends) == 1:
                return self._admin_error(
                    "request", "cannot remove the last backend"
                )
            del self.backends[name]
            self._rebuild_ring()
            generation = self.generation
        return {
            "ok": True,
            "op": "backend-remove",
            "backend": name,
            "ring_generation": generation,
        }

    # -- stats ----------------------------------------------------------------

    def _stats_response(self) -> Dict[str, Any]:
        with self._ring_lock:
            ring = self.ring
            generation = self.generation
            roster = dict(self.backends)
        ownership = ring.ownership()
        backends: List[Dict[str, Any]] = []
        cache_totals = {
            "entries": 0, "bytes": 0, "hits": 0, "misses": 0,
            "disk_hits": 0, "evictions": 0, "corrupt": 0,
        }
        for name in sorted(roster):
            backend = roster[name]
            snap = backend.snapshot()
            snap["ring"] = ownership[name]
            try:
                live = self._client(backend).request({"op": "stats"})
            except (ServiceError, OSError):
                self._drop_client(backend)
                live = None
            if live is not None and live.get("ok"):
                snap["stats"] = live
                cache = live.get("cache", {})
                for field in cache_totals:
                    cache_totals[field] += cache.get(field, 0)
            backends.append(snap)
        with self._counter_lock:
            router = {
                "requests": self._requests,
                "forwarded": self._forwarded,
                "failovers": self._failovers,
                "no_backend": self._no_backend,
                "replica_writes": self._replica_writes,
                "read_repairs": self._read_repairs,
                "replication": self.replication,
                "ring_generation": generation,
                "vnodes": ring.vnodes,
                "uptime_s": time.monotonic() - self._started,
            }
        lookups = cache_totals["hits"] + cache_totals["misses"]
        return {
            "ok": True,
            "op": "stats",
            "router": router,
            "backends": backends,
            "cache": {
                **cache_totals,
                "hit_rate": cache_totals["hits"] / lookups if lookups else 0.0,
            },
        }


# ----------------------------------------------------------------------------
# The TCP layer
# ----------------------------------------------------------------------------


class RouterServer(JsonLinesServer):
    """TCP front of a :class:`RouterService`; draining stops the
    prober."""

    def __init__(self, address: Tuple[str, int], router: RouterService):
        super().__init__(address, router.handle, router.stop)
        self.router = router
        router.start()


def build_router_parser() -> argparse.ArgumentParser:
    """The ``repro router`` argument parser (defaults single-sourced in
    :mod:`repro.service.defaults`)."""
    parser = argparse.ArgumentParser(
        prog="repro router",
        description="consistent-hash front end over N serve daemons",
    )
    parser.add_argument("--host", default=defaults.HOST)
    parser.add_argument("--port", type=int, default=defaults.ROUTER_PORT)
    parser.add_argument(
        "--backend", action="append", required=True, metavar="HOST:PORT",
        help="a backend serve daemon; repeat for each backend",
    )
    parser.add_argument(
        "--probe-interval", type=float, default=defaults.ROUTER_PROBE_INTERVAL_S,
        metavar="SECONDS",
        help="seconds between backend liveness probes "
             f"(default: {defaults.ROUTER_PROBE_INTERVAL_S:g})",
    )
    parser.add_argument(
        "--probe-failures", type=int, default=defaults.ROUTER_PROBE_FAILURES,
        help="consecutive failures before a backend is marked unhealthy "
             f"(default: {defaults.ROUTER_PROBE_FAILURES})",
    )
    parser.add_argument(
        "--timeout", type=float, default=defaults.CLIENT_TIMEOUT_S,
        metavar="SECONDS",
        help="per-request forwarding timeout "
             f"(default: {defaults.CLIENT_TIMEOUT_S:g})",
    )
    parser.add_argument(
        "--replication", type=int, default=defaults.ROUTER_REPLICATION,
        metavar="R",
        help="ring successors that hold each artifact; 1 disables "
             f"replication (default: {defaults.ROUTER_REPLICATION})",
    )
    return parser


def router_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro router``: run the front end until SIGTERM/SIGINT."""
    parser = build_router_parser()
    args = parser.parse_args(argv)
    for flag, value in (
        ("--probe-interval", args.probe_interval),
        ("--timeout", args.timeout),
    ):
        if not _positive_finite(value):
            parser.error(f"{flag} must be finite and positive, got {value}")
    for flag, value in (
        ("--probe-failures", args.probe_failures),
        ("--replication", args.replication),
    ):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    try:
        backends = [_parse_backend(spec) for spec in args.backend]
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    router = RouterService(
        backends,
        probe_interval_s=args.probe_interval,
        probe_failures=args.probe_failures,
        timeout=args.timeout,
        replication=args.replication,
    )
    server = RouterServer((args.host, args.port), router)
    host, port = server.server_address[:2]
    return run_daemon(
        server,
        f"repro router listening on {host}:{port} "
        f"({len(backends)} backends, {defaults.ROUTER_VNODES} vnodes each)",
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(router_main())
