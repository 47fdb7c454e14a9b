"""Client-side robustness: typed protocol errors (no raw socket/JSON
exceptions escape), retry with backoff on transient failures, and
connection-establishment retry."""

import json
import socket
import threading
from pathlib import Path

import pytest

from repro.service.client import (
    RETRYABLE_KINDS,
    ServiceClient,
    ServiceError,
    connect_with_retry,
)


class ScriptedServer:
    """A one-connection-at-a-time TCP server that answers each request
    line with the next scripted behavior:

    * a dict — sent as a JSON response line;
    * ``"garbage"`` — an unparseable response line;
    * ``"close"`` — close the connection without answering;
    * ``"silent"`` — never answer (the client's socket timeout fires).
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        index = 0
        while index < len(self.script):
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            file = conn.makefile("rwb")
            try:
                while index < len(self.script):
                    line = file.readline()
                    if not line:
                        break  # client reconnected or gave up
                    self.requests.append(json.loads(line))
                    action = self.script[index]
                    index += 1
                    if action == "close":
                        break
                    if action == "silent":
                        continue
                    if action == "garbage":
                        file.write(b"} this is not json {\n")
                    else:
                        file.write(
                            json.dumps(action).encode("utf-8") + b"\n"
                        )
                    file.flush()
            finally:
                # Close the makefile handle too: it holds its own
                # reference to the socket, and leaving it open would
                # keep the connection alive (the client would never
                # see EOF on the "close" action).
                try:
                    file.close()
                except OSError:
                    pass
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                conn.close()

    def close(self):
        self._listener.close()


OK = {"ok": True, "op": "ping"}


def error_response(kind, message="boom"):
    return {
        "ok": False,
        "error": {
            "kind": kind,
            "message": message,
            "context": {"stage": kind},
            "cause": None,
        },
    }


class TestTypedProtocolErrors:
    def test_garbled_response_is_a_protocol_error(self):
        # Regression: this used to escape as a raw json.JSONDecodeError.
        server = ScriptedServer(["garbage"])
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError) as info:
                    client.checked({"op": "ping"})
            assert info.value.kind == "protocol"
            assert not info.value.retryable
        finally:
            server.close()

    def test_closed_connection_is_a_transport_error(self):
        server = ScriptedServer(["close"])
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError) as info:
                    client.checked({"op": "ping"})
            assert info.value.kind == "transport"
            assert info.value.retryable
        finally:
            server.close()

    def test_socket_timeout_is_a_timeout_error(self):
        server = ScriptedServer(["silent", OK])
        try:
            with ServiceClient(
                "127.0.0.1", server.port, timeout=0.2
            ) as client:
                with pytest.raises(ServiceError) as info:
                    client.checked({"op": "ping"})
            assert info.value.kind == "timeout"
            assert info.value.retryable
        finally:
            server.close()

    def test_closed_client_raises_typed_not_attribute_error(self):
        server = ScriptedServer([OK])
        try:
            client = ServiceClient("127.0.0.1", server.port)
            client.close()
            with pytest.raises(ServiceError) as info:
                client.request({"op": "ping"})
            assert info.value.kind == "transport"
        finally:
            server.close()


class TestRetry:
    def test_retries_admission_then_succeeds(self):
        server = ScriptedServer(
            [error_response("admission", "queue full"), OK]
        )
        try:
            with ServiceClient(
                "127.0.0.1", server.port, retries=3, backoff=0.01
            ) as client:
                response = client.checked({"op": "ping"})
            assert response["ok"]
            assert len(server.requests) == 2  # original + one retry
        finally:
            server.close()

    def test_retries_worker_crash(self):
        server = ScriptedServer(
            [
                error_response("worker-crash", "worker died"),
                error_response("worker-crash", "worker died again"),
                OK,
            ]
        )
        try:
            with ServiceClient(
                "127.0.0.1", server.port, retries=3, backoff=0.01
            ) as client:
                assert client.checked({"op": "ping"})["ok"]
            assert len(server.requests) == 3
        finally:
            server.close()

    def test_reconnects_and_retries_after_transport_failure(self):
        server = ScriptedServer(["close", OK])
        try:
            with ServiceClient(
                "127.0.0.1", server.port, retries=3, backoff=0.01
            ) as client:
                assert client.checked({"op": "ping"})["ok"]
            assert len(server.requests) == 2
        finally:
            server.close()

    def test_non_retryable_kinds_fail_fast(self):
        for kind in ("deadline", "request", "worker-timeout", "poison-pill"):
            assert kind not in RETRYABLE_KINDS
            server = ScriptedServer([error_response(kind), OK])
            try:
                with ServiceClient(
                    "127.0.0.1", server.port, retries=3, backoff=0.01
                ) as client:
                    with pytest.raises(ServiceError) as info:
                        client.checked({"op": "ping"})
                assert info.value.kind == kind
                assert len(server.requests) == 1  # no retry happened
            finally:
                server.close()

    def test_retries_exhausted_raises_the_last_error(self):
        server = ScriptedServer(
            [error_response("admission")] * 3
        )
        try:
            with ServiceClient(
                "127.0.0.1", server.port, retries=2, backoff=0.01
            ) as client:
                with pytest.raises(ServiceError) as info:
                    client.checked({"op": "ping"})
            assert info.value.kind == "admission"
            assert len(server.requests) == 3  # original + 2 retries
        finally:
            server.close()

    def test_zero_retries_keeps_fail_fast_default(self):
        server = ScriptedServer([error_response("admission"), OK])
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError):
                    client.checked({"op": "ping"})
            assert len(server.requests) == 1
        finally:
            server.close()


class TestConnectWithRetry:
    def test_connects_once_the_port_is_live(self):
        # Reserve a port, start listening only after a short delay —
        # the pattern of a client racing a daemon's startup.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        holder = {}

        def start_late():
            import time

            time.sleep(0.15)
            holder["server"] = ScriptedServer.__new__(ScriptedServer)
            server = holder["server"]
            server.script = [OK]
            server.requests = []
            server._listener = socket.create_server(("127.0.0.1", port))
            server.port = port
            server._thread = threading.Thread(
                target=server._serve, daemon=True
            )
            server._thread.start()

        threading.Thread(target=start_late, daemon=True).start()
        with connect_with_retry(
            "127.0.0.1", port, retries=8, backoff=0.05
        ) as client:
            assert client.checked({"op": "ping"})["ok"]
        holder["server"].close()

    def test_gives_up_with_a_typed_error(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing will ever listen here
        with pytest.raises(ServiceError) as info:
            connect_with_retry("127.0.0.1", port, retries=1, backoff=0.01)
        assert info.value.kind == "transport"


class TestBackoffValidation:
    """A negative or NaN backoff used to surface only after the first
    failed attempt, as ``time.sleep``'s error; it is refused up front."""

    BAD = [-1.0, float("nan"), float("inf")]

    @pytest.mark.parametrize("backoff", BAD, ids=["negative", "nan", "inf"])
    def test_client_refuses_before_connecting(self, backoff):
        # Port 1 refuses connections: a ValueError proves the check ran
        # before any connection attempt.
        with pytest.raises(ValueError, match="backoff must be finite"):
            ServiceClient("127.0.0.1", 1, backoff=backoff)
        with pytest.raises(ValueError, match="backoff must be finite"):
            connect_with_retry("127.0.0.1", 1, retries=2, backoff=backoff)

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_request_refuses_the_flag(self, value, capsys):
        from repro.cli import main as cli_main

        source = Path(__file__).resolve().parents[1] / "corpus" / "seed16.mc"
        with pytest.raises(SystemExit) as exit_info:
            cli_main([
                "request", str(source), "--port", "1",
                "--retries", "2", "--backoff", value,
            ])
        assert exit_info.value.code == 2
        assert "--backoff must be finite and non-negative" in (
            capsys.readouterr().err
        )
