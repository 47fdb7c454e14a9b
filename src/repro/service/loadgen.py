"""Closed-loop correctness drill for the compile service.

``python -m repro loadgen`` drives a running daemon with N concurrent
workers, each holding one connection and issuing the next request the
moment the previous one completes (closed-loop: offered load adapts to
service capacity, so the queue is exercised without being flooded).  The
request mix cycles through bench-suite programs plus the committed fuzz
corpus (``tests/corpus/``) — the same inputs the rest of the repository
measures and replays.

loadgen is not a benchmark: latency and throughput through router →
daemon → worker are perfbench's ``service`` workload
(docs/BENCHMARKING.md).  The report counts what a drill asserts — typed
answers, errors, unanswered requests, and the cache hit rate *as seen by
this run's responses* — plus a determinism check: every response for the
same cache key must carry the same image sha256 and execution output;
any disagreement is counted as a mismatch (and fails the CI smoke job).
The ``artifacts`` map in the JSON report (cache key -> image sha256)
lets two runs be compared for byte-identical warm paths — CI diffs a
run taken during a failure drill against a drill-free one.  The drill itself (worker SIGKILLs and SIGSTOPs,
malformed requests) runs beside loadgen, from outside the daemon.

``--rolling-restart`` needs no running daemon: it spawns its own
backends and a replicating router, then restarts every backend while
back-to-back :func:`run_loadgen` passes keep the fleet under load (see
:func:`run_rolling_restart`).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import defaults
from .client import ServiceError, connect_with_retry

#: Small, fast bench programs — the default mix base.
DEFAULT_PROGRAMS = ("sieve", "hanoi")

def default_mix(
    programs: Sequence[str] = DEFAULT_PROGRAMS,
    corpus: bool = True,
) -> List[Tuple[str, str]]:
    """(name, source) pairs: bench suite programs plus the fuzz corpus."""
    from ..bench.suite import program

    mix: List[Tuple[str, str]] = [
        (name, program(name).source()) for name in programs
    ]
    if corpus:
        from ..resilience.corpus import DEFAULT_CORPUS_DIR, load_corpus

        loaded = load_corpus(DEFAULT_CORPUS_DIR)
        for entry in loaded.entries:
            with open(entry.path(loaded.directory)) as handle:
                mix.append((f"corpus:{entry.file}", handle.read()))
    return mix


@dataclass
class LoadgenReport:
    """One load-generation run, summarized."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    hits: int = 0
    misses: int = 0
    mismatches: int = 0
    #: Requests that got no typed answer at all (raw socket failure
    #: after retries, missing response).  Must be zero: this is the
    #: exactly-one-typed-answer invariant, seen from the client.
    unanswered: int = 0
    wall_s: float = 0.0
    error_kinds: Dict[str, int] = field(default_factory=dict)
    #: cache key -> image sha256, for cross-run byte-identity diffs.
    artifacts: Dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def hit_rate(self) -> float:
        answered = self.hits + self.misses
        return self.hits / answered if answered else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "hits": self.hits,
            "misses": self.misses,
            "mismatches": self.mismatches,
            "unanswered": self.unanswered,
            "hit_rate": round(self.hit_rate, 4),
            "wall_s": round(self.wall_s, 3),
            "error_kinds": dict(self.error_kinds),
            "artifacts": dict(self.artifacts),
        }

    def render(self, stream=None) -> None:
        stream = stream or sys.stdout
        print(
            f"[loadgen] {self.ok}/{self.requests} ok, "
            f"{self.errors} errors, {self.unanswered} unanswered "
            f"in {self.wall_s:.2f}s",
            file=stream,
        )
        print(
            f"[loadgen] cache: {self.hits} hits / {self.misses} misses "
            f"({100.0 * self.hit_rate:.1f}% hit rate), "
            f"{self.mismatches} determinism mismatches",
            file=stream,
        )


#: Error kinds raised below the response layer: no typed answer from the
#: server reached the client, even after retries.
_UNANSWERED = ("connect", "transport", "timeout", "protocol")


def _count(report: LoadgenReport, lock: threading.Lock, kind: str) -> None:
    with lock:
        report.errors += 1
        report.error_kinds[kind] = report.error_kinds.get(kind, 0) + 1
        if kind in _UNANSWERED:
            report.unanswered += 1


def run_loadgen(
    host: str = defaults.HOST,
    port: int = defaults.PORT,
    requests: int = 40,
    workers: int = 4,
    mix: Optional[List[Tuple[str, str]]] = None,
    allocator: str = defaults.ALLOCATOR,
    k: int = defaults.K,
    schedule: bool = False,
    deadline_ms: Optional[float] = None,
    retries: int = 0,
    stream=None,
) -> LoadgenReport:
    """Drive the daemon with a closed loop of ``workers`` clients.

    Request ``i`` uses ``mix[i % len(mix)]``, so repeated runs offer an
    identical, fully repeatable request stream — the property the warm
    hit-rate check in CI relies on.
    """
    for name, value in (("requests", requests), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    mix = mix if mix is not None else default_mix()
    if not mix:
        raise ValueError("empty request mix")
    report = LoadgenReport(requests=requests)
    lock = threading.Lock()
    next_index = [0]
    #: cache key -> (image sha, output) seen first; responses must agree.
    observed: Dict[str, Tuple[str, str]] = {}

    def worker() -> None:
        try:
            client = connect_with_retry(
                host, port, retries=retries, backoff=0.05
            )
        except (ServiceError, OSError):
            _count(report, lock, "connect")
            return
        client.retries = retries
        with client:
            while True:
                with lock:
                    index = next_index[0]
                    if index >= requests:
                        return
                    next_index[0] = index + 1
                name, source = mix[index % len(mix)]
                try:
                    response = client.compile(
                        source,
                        allocator=allocator,
                        k=k,
                        schedule=schedule,
                        deadline_ms=deadline_ms,
                        filename=name,
                    )
                except ServiceError as err:
                    _count(report, lock, err.kind)
                    if err.kind in _UNANSWERED:
                        try:
                            client._reconnect()
                        except OSError:
                            return
                    continue
                except OSError:
                    _count(report, lock, "transport")
                    return
                fingerprint = (
                    response.get("image_sha256", ""),
                    json.dumps(response.get("output", []), sort_keys=True),
                )
                with lock:
                    report.ok += 1
                    if response.get("cache") == "hit":
                        report.hits += 1
                    else:
                        report.misses += 1
                    seen = observed.setdefault(response["key"], fingerprint)
                    if seen != fingerprint:
                        report.mismatches += 1
                    report.artifacts[response["key"]] = response.get(
                        "image_sha256", ""
                    )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - started
    if stream is not None:
        report.render(stream)
    return report


def _free_port(host: str) -> int:
    """A port the OS just handed out — raceable in principle, fine for
    a drill that owns the machine it runs on."""
    import socket

    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _drill_mix(programs: Sequence[str]) -> List[Tuple[str, str]]:
    """A compact, fully deterministic mix for the drill: bench programs
    plus synthetic variants, enough distinct keys to spread across
    every backend's arcs without dragging the whole corpus through
    three restarts."""
    mix = default_mix(programs, corpus=False)
    for index in range(6):
        mix.append(
            (
                f"drill:{index}",
                f"int main() {{ return {index} + {index}; }}\n",
            )
        )
    return mix


def _spawn_backend(host: str, port: int) -> "subprocess.Popen":
    """One ``repro serve`` daemon as a child process."""
    import os
    import subprocess
    from pathlib import Path

    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", host, "--port", str(port),
            "--workers", "2",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_backend(host: str, port: int, timeout_s: float = 30.0) -> None:
    """Block until the daemon answers a ping (it may still be binding)."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            with connect_with_retry(host, port, timeout=5.0, retries=0) as client:
                if client.ping():
                    return
        except (ServiceError, OSError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"backend {host}:{port} never came up")
        time.sleep(0.1)


def _drifted(report: LoadgenReport, baseline: Dict[str, str]) -> int:
    """Keys whose image differs from the one the warm baseline saw."""
    artifacts = report.artifacts.items()
    return sum(baseline.get(key, sha) != sha for key, sha in artifacts)


def run_rolling_restart(
    backends: int = defaults.DRILL_BACKENDS,
    requests_per_phase: int = defaults.DRILL_REQUESTS_PER_PHASE,
    warm_hit_rate: float = defaults.DRILL_WARM_HIT_RATE,
    replication: int = defaults.ROUTER_REPLICATION,
    host: str = defaults.HOST,
    programs: Sequence[str] = DEFAULT_PROGRAMS,
    retries: int = 4,
    stream=None,
) -> Dict[str, Any]:
    """The rolling-restart drill: restart every backend under load.

    Spawns ``backends`` serve daemons plus an in-process router with
    replication on, warms the cache, then — with a background thread
    running :func:`run_loadgen` passes over the drill mix the whole
    time — walks the fleet one backend at a time: ``backend-remove``,
    SIGTERM, wait for exit, restart on the same port with an empty
    cache, ``backend-add``.  Read-repair warms the restarted backend
    from the other members of each replica set.  The drill passes iff
    **zero** requests were lost (no errors, no unanswered, no
    determinism mismatches in any phase), the background load answered
    at least one request, every artifact stayed byte-identical to the
    warm baseline, and the final pass — after every backend restarted —
    still answers warm at ``warm_hit_rate`` or better.  That final
    number is the whole point: before replication, each restart threw
    its share of the cache away.
    """
    import subprocess

    from .router import RouterServer, RouterService

    if backends < 2:
        raise ValueError("the drill needs at least 2 backends")
    mix = _drill_mix(programs)
    ports = []
    while len(ports) < backends:
        port = _free_port(host)
        if port not in ports:
            ports.append(port)
    procs: Dict[int, "subprocess.Popen"] = {}
    summary: Dict[str, Any] = {
        "backends": backends,
        "replication": replication,
        "mix_size": len(mix),
        "restarts": [],
        "ok": False,
    }

    def say(message: str) -> None:
        if stream is not None:
            print(f"[drill] {message}", file=stream)

    server = None
    load_thread = None
    stop = threading.Event()
    passes: List[LoadgenReport] = []

    def background_load(router_port: int) -> None:
        """Closed-loop passes for the whole restart window; every answer
        must come back typed, correct, and byte-identical."""
        while not stop.is_set():
            passes.append(
                run_loadgen(
                    host=host, port=router_port, requests=len(mix),
                    workers=1, mix=mix, retries=retries,
                )
            )

    try:
        say(f"spawning {backends} backends on ports {ports}")
        for port in ports:
            procs[port] = _spawn_backend(host, port)
        for port in ports:
            _wait_for_backend(host, port)
        router = RouterService(
            [(host, port) for port in ports],
            probe_interval_s=0.2,
            probe_failures=2,
            timeout=60.0,
            replication=replication,
        )
        server = RouterServer((host, 0), router)
        router_port = server.server_address[1]
        server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        server_thread.start()
        say(f"router on {host}:{router_port} (R={replication})")

        warm = run_loadgen(
            host=host, port=router_port,
            requests=max(requests_per_phase, len(mix)),
            workers=2, mix=mix, retries=retries,
        )
        baseline = dict(warm.artifacts)
        summary["warm"] = warm.as_dict()
        say(
            f"warm pass: {warm.ok}/{warm.requests} ok, "
            f"{len(baseline)} distinct artifacts"
        )
        if warm.errors or warm.unanswered:
            return summary

        load_thread = threading.Thread(
            target=background_load, args=(router_port,), daemon=True
        )
        load_thread.start()

        with connect_with_retry(host, router_port, retries=3) as admin:
            for port in ports:
                name = f"{host}:{port}"
                record: Dict[str, Any] = {"backend": name}
                started = time.monotonic()
                removed = admin.request(
                    {"op": "backend-remove", "backend": name}
                )
                record["remove_ok"] = bool(removed.get("ok"))
                say(f"removed {name} (ok={record['remove_ok']})")
                proc = procs[port]
                proc.terminate()
                try:
                    proc.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
                procs[port] = _spawn_backend(host, port)
                _wait_for_backend(host, port)
                added = admin.request({"op": "backend-add", "backend": name})
                record["add_ok"] = bool(added.get("ok"))
                record["ring_generation"] = added.get("ring_generation")
                record["window_s"] = round(time.monotonic() - started, 2)
                say(
                    f"restarted {name} in {record['window_s']}s "
                    f"(ring generation {record['ring_generation']})"
                )
                summary["restarts"].append(record)
                if not (record["remove_ok"] and record["add_ok"]):
                    return summary

        stop.set()
        load_thread.join(timeout=60.0)
        background: Dict[str, Any] = {"passes": len(passes)}
        for count in ("requests", "ok", "errors", "unanswered", "mismatches"):
            background[count] = sum(getattr(each, count) for each in passes)
        background["artifacts_drifted"] = sum(
            _drifted(report, baseline) for report in passes
        )
        background["error_kinds"] = dict(
            sum((Counter(report.error_kinds) for report in passes), Counter())
        )
        summary["background"] = background
        say(
            "background load: {ok}/{requests} ok over {passes} passes, "
            "{errors} errors, {unanswered} unanswered, {mismatches} "
            "mismatches, {artifacts_drifted} artifacts drifted".format(
                **background
            )
        )

        final = run_loadgen(
            host=host, port=router_port,
            requests=max(requests_per_phase, len(mix)),
            workers=2, mix=mix, retries=retries,
        )
        drifted = _drifted(final, baseline)
        summary["final"] = {**final.as_dict(), "artifacts_drifted": drifted}
        summary["post_restart_hit_rate"] = round(final.hit_rate, 4)
        say(
            f"final pass: {final.ok}/{final.requests} ok, "
            f"hit rate {100.0 * final.hit_rate:.1f}% "
            f"(floor {100.0 * warm_hit_rate:.0f}%), "
            f"{drifted} artifacts drifted"
        )
        summary["ok"] = (
            all(
                summary[phase][count] == 0
                for phase in ("warm", "background", "final")
                for count in ("errors", "unanswered", "mismatches")
            )
            and background["ok"] >= 1
            and background["artifacts_drifted"] == 0
            and drifted == 0
            and final.hit_rate >= warm_hit_rate
        )
        say("PASS" if summary["ok"] else "FAIL")
        return summary
    finally:
        stop.set()
        if load_thread is not None and load_thread.is_alive():
            load_thread.join(timeout=10.0)
        if server is not None:
            server.drain_and_shutdown()
            server.server_close()
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in procs.values():
            try:
                proc.wait(timeout=15.0)
            except Exception:
                proc.kill()


def build_loadgen_parser() -> argparse.ArgumentParser:
    """The ``repro loadgen`` argument parser (defaults single-sourced in
    :mod:`repro.service.defaults`)."""
    parser = argparse.ArgumentParser(
        prog="repro loadgen", description="closed-loop service load generator"
    )
    parser.add_argument("--host", default=defaults.HOST)
    parser.add_argument("--port", type=int, default=defaults.PORT)
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--programs", nargs="*", default=list(DEFAULT_PROGRAMS),
        help="bench-suite programs in the mix",
    )
    parser.add_argument(
        "--no-corpus", action="store_true",
        help="leave the fuzz corpus out of the mix",
    )
    parser.add_argument(
        "--allocator",
        choices=("gra", "rap", "ssaspill", "linearscan", "spillall"),
        default=defaults.ALLOCATOR,
    )
    parser.add_argument("-k", type=int, default=defaults.K)
    parser.add_argument("--schedule", action="store_true")
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument(
        "--retries", type=int, default=defaults.CLIENT_RETRIES,
        help="client retries for transient failures (admission, "
             "worker-crash, no-backend, transport)",
    )
    parser.add_argument(
        "--rolling-restart", action="store_true",
        help="self-contained drill: spawn backends + a replicating "
             "router, then restart every backend under load asserting "
             "zero lost requests and a pinned warm hit rate",
    )
    parser.add_argument(
        "--backends", type=int, default=defaults.DRILL_BACKENDS,
        help="backends spawned by --rolling-restart "
             f"(default: {defaults.DRILL_BACKENDS})",
    )
    parser.add_argument(
        "--replication", type=int, default=defaults.ROUTER_REPLICATION,
        help="replication factor for the --rolling-restart router "
             f"(default: {defaults.ROUTER_REPLICATION})",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the report as JSON",
    )
    return parser


def loadgen_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_loadgen_parser()
    args = parser.parse_args(argv)
    for flag, value, least in (
        ("--requests", args.requests, 1),
        ("--workers", args.workers, 1),
        ("--backends", args.backends, 2),
        ("--replication", args.replication, 1),
    ):
        if value < least:
            parser.error(f"{flag} must be at least {least}, got {value}")

    if args.rolling_restart:
        summary = run_rolling_restart(
            backends=args.backends,
            replication=args.replication,
            host=args.host,
            programs=args.programs,
            retries=max(args.retries, 4),
            stream=sys.stdout,
        )
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 0 if summary["ok"] else 1

    report = run_loadgen(
        host=args.host,
        port=args.port,
        requests=args.requests,
        workers=args.workers,
        mix=default_mix(args.programs, corpus=not args.no_corpus),
        allocator=args.allocator,
        k=args.k,
        schedule=args.schedule,
        deadline_ms=args.deadline_ms,
        retries=args.retries,
        stream=sys.stdout,
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    clean = (
        report.mismatches == 0
        and report.unanswered == 0
        and report.errors == 0
    )
    return 0 if clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(loadgen_main())
