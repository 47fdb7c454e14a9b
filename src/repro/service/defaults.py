"""Single source of truth for every service-facing default.

Before this module existed, the same defaults were written out three
times — in the argparse help strings, in the dataclass/function
signatures that actually implement them, and in the docs — and the
copies drifted (the ``serve --help`` watchdog default said one thing
while :class:`~repro.service.workers.Supervision` said another).  Now
each default has exactly one definition here; the parsers, the
implementation defaults, and the docs-check test all read it from this
module, and ``tests/service/test_defaults.py`` fails the build if a
signature or a ``--help`` string stops agreeing with it.

Nothing here is configuration — these are *defaults*.  Every one of
them is overridable per daemon (CLI flags), per client
(:class:`~repro.service.client.ServiceClient` arguments), or per
request (protocol fields).
"""

from __future__ import annotations

import os

# -- addresses ---------------------------------------------------------------

#: Daemons bind, and clients connect, loopback-only unless told otherwise.
HOST = "127.0.0.1"
#: The backend compile daemon (``python -m repro serve``).
PORT = 9363
#: The consistent-hash front end (``python -m repro router``) — one below
#: the backend port so a router + backend pair fits the default layout.
ROUTER_PORT = 9362

# -- the compile daemon ------------------------------------------------------

#: Bounded earliest-deadline-first admission queue depth.
QUEUE_LIMIT = 32
#: The one worker mode, crash-isolated supervised child processes;
#: ``serve --worker-mode`` still accepts it.
WORKER_MODE = "process"


def usable_cpus() -> int:
    """The CPUs this process may actually use (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


#: In-memory artifact budget (bytes): 64 MiB.
CACHE_BYTES = 64 * 1024 * 1024

# -- supervision (the process worker tier) -----------------------------------

#: Per-job wall-clock watchdog before a hung child is SIGKILLed.
JOB_TIMEOUT_S = 120.0
#: First respawn delay after a worker death; doubles per consecutive
#: death of the same slot, capped.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: Crashes/hangs attributed to one compile key before quarantine.
POISON_THRESHOLD = 2

# -- deadlines ---------------------------------------------------------------

#: How long a handler waits for a deadline-less job before cancelling.
WAIT_S = 300.0
#: Extra wait beyond a job's own deadline, covering worker bookkeeping.
GRACE_S = 60.0

# -- clients -----------------------------------------------------------------

#: Socket timeout for one request/response round trip.
CLIENT_TIMEOUT_S = 600.0
#: Retries of transient failures (0 = historical fail-fast behavior).
CLIENT_RETRIES = 0
#: Base retry delay; doubles per attempt, jittered.
CLIENT_BACKOFF_S = 0.05

# -- requests ----------------------------------------------------------------

#: Compile defaults when the request omits them.
ALLOCATOR = "rap"
K = 5

# -- the router --------------------------------------------------------------

#: Virtual nodes per backend on the consistent-hash ring.
ROUTER_VNODES = 64
#: Seconds between background liveness probes of each backend.
ROUTER_PROBE_INTERVAL_S = 2.0
#: Consecutive failed probes (or forwarding failures) before a backend
#: is marked unhealthy and skipped by the ring.
ROUTER_PROBE_FAILURES = 2
#: Replication factor: each cold artifact is written through to this
#: many ring successors (the compiling node included), so failover
#: lands on a warm replica instead of recompiling.
ROUTER_REPLICATION = 2

# -- the rolling-restart drill -----------------------------------------------

#: Backends spawned by ``loadgen --rolling-restart``.
DRILL_BACKENDS = 3
#: Closed-loop requests issued by the drill's warm pass and by its final
#: pass after every restart (at least one per mix entry).
DRILL_REQUESTS_PER_PHASE = 16
#: Post-restart warm hit rate the drill pins (previously-warm keys must
#: still answer warm after every backend restarted).
DRILL_WARM_HIT_RATE = 0.9
