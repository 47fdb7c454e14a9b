"""Compile-as-a-service: a long-lived compile-and-execute daemon.

The rest of the repository is batch-shaped: every ``python -m repro run``
pays the interpreter start-up, parse, semantic analysis, PDG build, and
allocation from scratch.  This package keeps one warm process around
instead — and, with the router, N of them behind one address:

* :mod:`repro.service.cache` — a content-addressed artifact store.
  Results are keyed on ``sha256(source ‖ allocator ‖ k ‖ schedule ‖
  execute [‖ entry ‖ max_cycles] ‖ code-fingerprint)``, held in one LRU
  under a byte budget, and optionally persisted to disk, so a repeat
  request skips parse -> sema -> pdg-build -> allocate entirely.
* :mod:`repro.service.server` — a JSON-over-TCP server (stdlib only)
  whose workers reuse the resilient
  :class:`~repro.resilience.pipeline.PassPipeline` and the allocator
  fallback ladder, starting at the allocator the request names.
  Admission control is a bounded earliest-deadline-first queue; a
  request's deadline orders and expires its place in that queue.
* :mod:`repro.service.workers` — the supervised **process** worker tier
  (the ``serve`` default): crash-isolated child processes under a
  per-job watchdog, exponential respawn backoff, and poison-pill
  quarantine of compile keys that kill workers.  Failure drills
  signal these children from outside: a SIGKILL is a crash, a SIGSTOP
  a hang.
* :mod:`repro.service.router` — the consistent-hash front end
  (``python -m repro router``): sha256 ring with virtual nodes over N
  backend daemons, background health probes, transport-failover to the
  ring successor, write-through replication with read-repair, and
  deployment-wide ``stats`` aggregation.
* :mod:`repro.service.client` — the wire protocol: the client library
  behind ``python -m repro request``, with typed protocol errors and
  opt-in retry (exponential backoff + jitter) of transient failures,
  and the JSON-lines daemon loop that ``serve`` and ``router`` share.
* :mod:`repro.service.loadgen` — a closed-loop correctness drill
  reporting typed answers, unanswered requests, determinism
  mismatches, and cache hit rate, and a ``--rolling-restart`` drill that restarts every backend of a
  replicating fleet under load with zero lost requests.  Latency and
  throughput are perfbench's ``service`` workload.
* :mod:`repro.service.defaults` — the single source of truth for every
  service-facing default (ports, budgets, deadlines, supervision).

See docs/SERVICE.md for the protocol and the operational semantics
(cache keys, admission and deadlines, supervision, drain behaviour),
docs/OPERATIONS.md for deployment topologies and runbooks, and
docs/ROBUSTNESS.md for the failure-mode matrix.
"""

from .. import _lazy_exports

# Each process imports only the modules its role runs: the router never
# loads the server, and only a worker child loads the compiler.
_EXPORTS = {
    ".cache": ("ArtifactCache", "cache_key", "source_fingerprint"),
    ".client": ("ServiceClient", "ServiceError", "connect_with_retry"),
    ".router": ("HashRing", "RouterService", "router_main"),
    ".server": ("CompileService", "serve"),
    ".workers": ("Supervision",),
}
__getattr__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
