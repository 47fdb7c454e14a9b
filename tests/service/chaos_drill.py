"""Failure drills for the compile daemon, driven from outside with real
signals.

A crash probe SIGKILLs, and a hang probe SIGSTOPs, the worker child that
is compiling it.  The drill sends a probe that runs for minutes unless
stopped, with a source of its own, polls ``stats`` until some worker's
``busy_key`` is the probe's cache key, and signals that worker's
``pid``.  The supervisor then answers a real OS death with
``worker-crash`` and ends a real wedge with its watchdog
(``worker-timeout``).  Malformed probes are raw payloads that must come
back as typed ``request`` errors.

:func:`signal_probe` drives one probe through any ``submit`` callable:
``CompileService.submit`` in process, or ``ServiceClient.request`` over
TCP.  :func:`run_drill` runs a whole drill against a live daemon; the
CI ``chaos-smoke`` job runs it as a script beside a normal loadgen
pass::

    PYTHONPATH=src python -m tests.service.chaos_drill --port 9374 \\
        --crashes 3 --hangs 1 --malformed 2 --out drill.json

The script exits 0 iff every probe got exactly one typed answer.
"""

import argparse
import json
import os
import signal
import sys
import threading
import time
import uuid
from typing import Any, Callable, Dict, Optional

from repro.service import defaults
from repro.service.cache import cache_key
from repro.service.client import ServiceError, connect_with_retry

#: A loop that outlives any watchdog: the probe is busy until signalled.
PROBE_SOURCE = """int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 2000000000; i = i + 1) { s = s + i; }
    return s;
}
"""

#: The probe's cycle budget, far beyond the loop's length.
PROBE_MAX_CYCLES = 10**15

#: How often the drill reads ``stats`` while it waits for the probe.
POLL_S = 0.005

#: Error kinds raised below the response layer: no typed answer came.
UNANSWERED = ("transport", "timeout", "protocol")


def probe_request(tag: str, allocator: str = defaults.ALLOCATOR,
                  k: int = defaults.K) -> Dict[str, Any]:
    """A compile request for the probe, keyed by ``tag``: two probes
    with one tag strike one key, distinct tags never share strikes."""
    return {
        "op": "compile",
        "source": f"{PROBE_SOURCE}// drill probe {tag}\n",
        "allocator": allocator,
        "k": k,
        "max_cycles": PROBE_MAX_CYCLES,
        "filename": f"drill:{tag}",
    }


def probe_key(request: Dict[str, Any]) -> str:
    """The cache key the daemon computes for ``request``."""
    return cache_key(
        request["source"],
        request.get("allocator", defaults.ALLOCATOR),
        request.get("k", defaults.K),
        request.get("schedule", False),
        request.get("execute", True),
        request.get("entry", "main"),
        request.get("max_cycles"),
    )


def busy_pid(stats: Dict[str, Any], key: str) -> Optional[int]:
    """The pid of the worker child compiling ``key``, if any."""
    for worker in stats.get("supervisor", {}).get("workers", []):
        if worker["busy_key"] == key and worker["pid"] is not None:
            return worker["pid"]
    return None


def _answer(submit: Callable[[Dict[str, Any]], Dict[str, Any]],
            request: Dict[str, Any]) -> Dict[str, Any]:
    try:
        return submit(request)
    except ServiceError as err:
        return {"ok": False, "error": err.payload}


def signal_probe(
    submit: Callable[[Dict[str, Any]], Dict[str, Any]],
    stats: Callable[[], Dict[str, Any]],
    request: Dict[str, Any],
    signum: int,
    timeout_s: float = 60.0,
) -> Optional[Dict[str, Any]]:
    """Send ``request`` through ``submit`` and ``signum`` to the worker
    child that compiles it; return the answer, or None when none came
    within ``timeout_s``.

    ``stats`` returns a ``stats`` response and must not share
    ``submit``'s connection, which is blocked on the probe.  An answer
    that arrives before any worker is busy with the probe's key (a
    quarantined key, say) is returned with nothing signalled.
    """
    key = probe_key(request)
    answers = []
    thread = threading.Thread(
        target=lambda: answers.append(_answer(submit, request)),
        name="drill-probe",
        daemon=True,
    )
    deadline = time.monotonic() + timeout_s
    thread.start()
    while thread.is_alive() and time.monotonic() < deadline:
        pid = busy_pid(stats(), key)
        if pid is not None:
            os.kill(pid, signum)
            break
        time.sleep(POLL_S)
    thread.join(max(0.0, deadline - time.monotonic()))
    return answers[0] if answers else None


def _kind(answer: Optional[Dict[str, Any]]) -> str:
    if answer is None:
        return "unanswered"
    if answer.get("ok"):
        return "ok"
    return (answer.get("error") or {}).get("kind", "unknown")


def run_drill(
    host: str = defaults.HOST,
    port: int = defaults.PORT,
    crashes: int = 2,
    hangs: int = 1,
    malformed: int = 2,
    allocator: str = defaults.ALLOCATOR,
    k: int = defaults.K,
    gap_s: float = 0.05,
    timeout_s: float = 60.0,
) -> Dict[str, Any]:
    """Crash, hang and malformed probes against a live daemon.

    Every probe must get exactly one typed answer; one that gets none
    counts as ``unanswered``.  Probes never retry: the typed error is
    the expected answer, and a retried crash probe would strike its own
    key into poison-pill quarantine.  ``hang_latency_ms`` is each hang
    probe's time to its answer, which the watchdog bounds.
    """
    report: Dict[str, Any] = {
        "probes": 0,
        "crashes": crashes,
        "hangs": hangs,
        "malformed": malformed,
        "unanswered": 0,
        "answer_kinds": {},
        "hang_latency_ms": [],
    }

    def note(answer: Optional[Dict[str, Any]]) -> str:
        kind = _kind(answer)
        report["probes"] += 1
        report["answer_kinds"][kind] = report["answer_kinds"].get(kind, 0) + 1
        if kind == "unanswered" or kind in UNANSWERED:
            report["unanswered"] += 1
        return kind

    run = uuid.uuid4().hex[:12]
    plan = [("crash", signal.SIGKILL, i) for i in range(crashes)] + [
        ("hang", signal.SIGSTOP, i) for i in range(hangs)
    ]
    with connect_with_retry(host, port, retries=3, backoff=0.1) as client, \
            connect_with_retry(host, port, retries=3, backoff=0.1) as monitor:
        client.retries = 0
        for name, signum, index in plan:
            started = time.perf_counter()
            answer = signal_probe(
                client.request,
                monitor.stats,
                probe_request(f"{run} {name} #{index}", allocator, k),
                signum,
                timeout_s,
            )
            kind = note(answer)
            if name == "hang" and answer is not None:
                report["hang_latency_ms"].append(
                    round((time.perf_counter() - started) * 1000.0, 1)
                )
            if kind in UNANSWERED:
                client._reconnect()
            time.sleep(gap_s)
        for index in range(malformed):
            payload = (
                {"op": "compile", "k": k}  # missing source
                if index % 2 == 0
                else {"op": f"no-such-op-{index}"}
            )
            note(_answer(client.request, payload))
            time.sleep(gap_s)
    return report


def build_drill_parser() -> argparse.ArgumentParser:
    """The drill script's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m tests.service.chaos_drill",
        description="signal-driven failure drill against a live daemon",
    )
    parser.add_argument("--host", default=defaults.HOST)
    parser.add_argument("--port", type=int, default=defaults.PORT)
    parser.add_argument("--crashes", type=int, default=2)
    parser.add_argument("--hangs", type=int, default=1)
    parser.add_argument("--malformed", type=int, default=2)
    parser.add_argument("--out", metavar="FILE", default=None)
    return parser


def main(argv=None) -> int:
    args = build_drill_parser().parse_args(argv)
    report = run_drill(
        args.host, args.port, args.crashes, args.hangs, args.malformed
    )
    print(
        f"[drill] {report['probes']} probes ({report['crashes']} crash, "
        f"{report['hangs']} hang, {report['malformed']} malformed), "
        f"{report['unanswered']} unanswered, kinds {report['answer_kinds']}"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report["unanswered"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
