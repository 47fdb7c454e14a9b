"""The JSON-lines wire protocol: the client library, ``python -m repro
request``, and the daemon loop that ``serve`` and ``router`` share.

:class:`ServiceClient` holds one TCP connection and speaks the JSON-lines
protocol of :mod:`repro.service.server`.  Failed requests raise
:class:`ServiceError`; when the failure was a pipeline stage, the thawed
:class:`~repro.resilience.errors.StageError` (correct subclass included)
rides on ``ServiceError.stage_error``, so callers can inspect the remote
stage/allocator/k context exactly as if the pipeline had run in-process.

Protocol-level failures are typed too — nothing below the JSON layer
escapes raw:

* ``transport`` — the connection died (reset, refused, closed mid-read);
* ``timeout`` — the socket timed out waiting for the response;
* ``protocol`` — the server answered, but not with parseable JSON.

Retry semantics
---------------

``ServiceClient(retries=N, backoff=B)`` retries *safe* failures up to N
times with exponential backoff and jitter (delay ~ ``B * 2**attempt``,
jittered).  Safe means the request can be replayed without changing the
outcome — true for every compile because artifacts are content-addressed
and compiles are idempotent: replaying a request that actually succeeded
server-side just hits the cache.  Retried failures are connection
establishment, ``transport``/``timeout`` protocol failures (with an
automatic reconnect), and the server-side kinds in
:data:`RETRYABLE_KINDS` (``admission`` — the queue was momentarily full;
``worker-crash`` — the worker died, possibly through no fault of the
request).  ``worker-timeout`` and ``poison-pill`` are deliberately *not*
retried: the server has evidence the request itself is pathological.
``replica-miss`` is not retried either — it is not a failure at all but
the router replication protocol's "this backend is cold" answer to a
``warm_only`` probe, and only the router should ever see it.

The daemon side
---------------

:class:`JsonLinesServer` is the listener both daemons run: one handler
thread per connection, one response line per request line, each
request object answered by the daemon's ``submit``/``handle``
callable.  :func:`run_daemon` is their shared main loop — serve until
SIGTERM/SIGINT, run the daemon's drain, close the listener.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import signal
import socket
import socketserver
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..resilience.errors import StageError
from . import defaults

_PIPELINE_KINDS = {
    "stage",
    "miscompile",
    "motion-validation",
    "schedule-validation",
    "peephole-validation",
}

#: Server-answered error kinds that are safe to retry: transient
#: conditions where replaying an idempotent compile can succeed.
#: ``no-backend`` is the router's "every ring node was down" answer —
#: retried because backends respawn/recover underneath a live router.
RETRYABLE_KINDS = frozenset({"admission", "worker-crash", "no-backend"})

#: Client-synthesized kinds for failures below the response layer.
_CONNECTION_KINDS = frozenset({"transport", "timeout"})


class ServiceError(Exception):
    """A failed request, server-answered or protocol-level.

    ``kind`` is the frozen payload's kind — ``admission`` / ``deadline``
    / ``request`` / ``worker-crash`` / ``worker-timeout`` /
    ``poison-pill`` for service-level failures, a pipeline kind for
    stage failures, or the client-synthesized ``transport`` /
    ``timeout`` / ``protocol`` when the failure happened below the
    response layer.  ``stage_error`` is the thawed exception for
    pipeline kinds, None otherwise; ``payload`` is the raw error
    object.
    """

    def __init__(self, payload: Dict[str, Any]):
        self.payload = payload
        self.kind = payload.get("kind", "unknown")
        self.stage_error: Optional[StageError] = None
        if self.kind in _PIPELINE_KINDS:
            try:
                self.stage_error = StageError.thaw(payload)
            except (KeyError, TypeError):
                pass
        super().__init__(
            str(self.stage_error)
            if self.stage_error is not None
            else f"[{self.kind}] {payload.get('message', '')}"
        )

    @property
    def retryable(self) -> bool:
        """True when replaying the (idempotent) request may succeed."""
        return self.kind in RETRYABLE_KINDS or self.kind in _CONNECTION_KINDS


def _error_payload(kind: str, message: str, **extra: Any) -> Dict[str, Any]:
    """A frozen-StageError-shaped payload for non-pipeline failures, so
    clients handle every error through one code path."""
    return {
        "kind": kind,
        "message": message,
        "context": {"stage": kind, "extra": extra} if extra else {"stage": kind},
        "cause": None,
    }


def _protocol_error(kind: str, message: str) -> ServiceError:
    return ServiceError(_error_payload(kind, message))


def _valid_backoff(backoff: float) -> bool:
    """A retry base delay ``time.sleep`` accepts at every attempt."""
    return math.isfinite(backoff) and backoff >= 0


class ServiceClient:
    """One connection to the daemon; usable as a context manager.

    ``retries``/``backoff`` arm the retry loop in :meth:`checked` (and
    everything built on it) — see the module docstring for which
    failures are replayed.  ``retries=0`` (the default) keeps the
    historical fail-fast behavior.  A ``backoff`` that is not finite
    and non-negative raises :class:`ValueError` before connecting.
    """

    def __init__(self, host: str = defaults.HOST, port: int = defaults.PORT,
                 timeout: float = defaults.CLIENT_TIMEOUT_S,
                 retries: int = defaults.CLIENT_RETRIES,
                 backoff: float = defaults.CLIENT_BACKOFF_S):
        if not _valid_backoff(backoff):
            raise ValueError(
                f"backoff must be finite and non-negative, got {backoff}"
            )
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._file = self._sock.makefile("rwb")

    def _reconnect(self) -> None:
        self.close()
        self._connect()

    def close(self) -> None:
        if self._file is None:
            return
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            self._file = None
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- raw protocol ---------------------------------------------------------

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, return the raw response object.

        Never raises a raw socket/JSON error: failures below the
        response layer surface as :class:`ServiceError` with the typed
        kinds ``transport`` (connection died), ``timeout`` (socket
        timeout), or ``protocol`` (unparseable response line).
        """
        if self._file is None:
            raise _protocol_error("transport", "client is closed")
        try:
            self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
        except socket.timeout as err:
            raise _protocol_error(
                "timeout", f"no response within {self._timeout:g}s"
            ) from err
        except (ConnectionError, OSError) as err:
            raise _protocol_error(
                "transport", f"connection failed: {err}"
            ) from err
        if not line:
            raise _protocol_error(
                "transport", "server closed the connection"
            )
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError as err:
            raise _protocol_error(
                "protocol", f"unparseable response line: {err}"
            ) from err

    def _checked_once(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        response = self.request(payload)
        if not response.get("ok"):
            raise ServiceError(response.get("error") or {})
        return response

    def checked(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Like :meth:`request`, but raises :class:`ServiceError` on
        ``ok: false`` responses — retrying retryable failures up to
        ``self.retries`` times with exponential backoff + jitter."""
        attempt = 0
        while True:
            try:
                return self._checked_once(payload)
            except ServiceError as err:
                if not err.retryable or attempt >= self.retries:
                    raise
                if err.kind in _CONNECTION_KINDS:
                    try:
                        self._reconnect()
                    except OSError as reconnect_err:
                        if attempt + 1 >= self.retries:
                            raise _protocol_error(
                                "transport",
                                f"reconnect failed: {reconnect_err}",
                            ) from reconnect_err
                delay = self.backoff * (2 ** attempt)
                time.sleep(delay * (0.5 + random.random()))  # full-ish jitter
                attempt += 1

    # -- operations -----------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, Any]:
        return self.checked({"op": "stats"})

    def compile(
        self,
        source: str,
        allocator: str = defaults.ALLOCATOR,
        k: int = defaults.K,
        schedule: bool = False,
        execute: bool = True,
        entry: str = "main",
        deadline_ms: Optional[float] = None,
        max_cycles: Optional[int] = None,
        filename: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "op": "compile",
            "source": source,
            "allocator": allocator,
            "k": k,
            "schedule": schedule,
            "execute": execute,
            "entry": entry,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if max_cycles is not None:
            payload["max_cycles"] = max_cycles
        if filename is not None:
            payload["filename"] = filename
        return self.checked(payload)


def connect_with_retry(
    host: str,
    port: int,
    timeout: float = defaults.CLIENT_TIMEOUT_S,
    retries: int = defaults.CLIENT_RETRIES,
    backoff: float = defaults.CLIENT_BACKOFF_S,
) -> ServiceClient:
    """Build a :class:`ServiceClient`, retrying connection establishment
    itself — for clients racing a daemon that is still binding its port
    (failure drills, CI smoke jobs).  A bad ``backoff`` raises
    :class:`ValueError` before the first attempt, as it does in
    :class:`ServiceClient`."""
    attempt = 0
    while True:
        try:
            return ServiceClient(
                host, port, timeout=timeout, retries=retries, backoff=backoff
            )
        except OSError as err:
            if attempt >= retries:
                raise _protocol_error(
                    "transport", f"cannot connect to {host}:{port}: {err}"
                ) from err
            delay = backoff * (2 ** attempt)
            time.sleep(delay * (0.5 + random.random()))
            attempt += 1


# ----------------------------------------------------------------------------
# The daemon side: one listener and one main loop for serve and router
# ----------------------------------------------------------------------------


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one connection, many JSON lines
        answer = self.server.answer  # type: ignore[attr-defined]
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError(
                        f"expected an object, got {type(request).__name__}"
                    )
            except ValueError as err:
                response = {
                    "ok": False,
                    "error": _error_payload("request", f"bad json: {err}"),
                }
            else:
                response = answer(request)
            try:
                self.wfile.write(
                    json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"
                )
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return


class JsonLinesServer(socketserver.ThreadingTCPServer):
    """A JSON-lines daemon listener.  ``answer`` maps one request
    object to its response object and never raises; ``drain`` runs
    before the listener stops.  One handler thread per connection, so a
    handler blocked in ``answer`` never blocks the accept loop."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        answer: Callable[[Dict[str, Any]], Dict[str, Any]],
        drain: Callable[..., None],
    ):
        super().__init__(address, _LineHandler)
        self.answer = answer
        self._drain = drain

    def drain_and_shutdown(self, *args: Any, **kwargs: Any) -> None:
        """Run the drain (arguments pass through to it), then stop
        :meth:`serve_forever`."""
        self._drain(*args, **kwargs)
        self.shutdown()


def run_daemon(server: JsonLinesServer, banner: str) -> int:
    """Print ``banner`` and serve until SIGTERM/SIGINT, then drain and
    close the listener — the main loop of ``serve`` and ``router``."""
    print(banner, flush=True)

    def _drain(signum, frame):  # pragma: no cover - signal path
        print("draining...", flush=True)
        threading.Thread(target=server.drain_and_shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    print("drained; bye", flush=True)
    return 0


def build_request_parser() -> argparse.ArgumentParser:
    """The ``repro request`` argument parser (defaults single-sourced in
    :mod:`repro.service.defaults`; see :func:`..server.build_serve_parser`
    for why this is a factory)."""
    parser = argparse.ArgumentParser(
        prog="repro request", description="send one compile request"
    )
    parser.add_argument("file", help="Mini-C source file")
    parser.add_argument("--host", default=defaults.HOST)
    parser.add_argument("--port", type=int, default=defaults.PORT)
    parser.add_argument(
        "--allocator",
        choices=("gra", "rap", "ssaspill", "linearscan", "spillall"),
        default=defaults.ALLOCATOR,
    )
    parser.add_argument("-k", type=int, default=defaults.K)
    parser.add_argument("--schedule", action="store_true")
    parser.add_argument("--no-execute", action="store_true")
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--entry", default="main")
    parser.add_argument(
        "--retries", type=int, default=defaults.CLIENT_RETRIES,
        help="retry transient failures (admission, worker-crash, "
             "no-backend, transport) this many times",
    )
    parser.add_argument(
        "--backoff", type=float, default=defaults.CLIENT_BACKOFF_S,
        help="base retry delay in seconds (doubles per attempt, jittered)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the raw response object"
    )
    return parser


def request_main(argv: Optional[Any] = None) -> int:
    """``python -m repro request FILE``: one compile against a daemon."""
    parser = build_request_parser()
    args = parser.parse_args(argv)
    if not _valid_backoff(args.backoff):
        parser.error(
            f"--backoff must be finite and non-negative, got {args.backoff}"
        )

    with open(args.file) as handle:
        source = handle.read()
    try:
        with connect_with_retry(
            args.host, args.port, retries=args.retries, backoff=args.backoff
        ) as client:
            response = client.compile(
                source,
                allocator=args.allocator,
                k=args.k,
                schedule=args.schedule,
                execute=not args.no_execute,
                entry=args.entry,
                deadline_ms=args.deadline_ms,
                filename=args.file,
            )
    except ServiceError as err:
        if err.stage_error is not None:
            print(err.stage_error.render(), file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: cannot reach service: {err}", file=sys.stderr)
        return 1

    if args.json:
        json.dump(response, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    for value in response.get("output", []):
        print(value)
    summary = (
        f"{response['allocator_used']} k={response['k']}"
        f" cache={response['cache']}"
        f" wall={response['wall_ms']:.1f}ms"
        f" image={response['image_sha256'][:12]}"
    )
    if "cycles" in response:
        summary += f" cycles={response['cycles']}"
    print(summary, file=sys.stderr)
    if response.get("fallbacks"):
        for event in response["fallbacks"]:
            print(
                f"fallback: {event['allocator']} failed at "
                f"{event['stage']}: {event['reason']}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(request_main())
