"""A router plus backend daemons, each its own subprocess.

``Fleet.start`` spawns the backends (``repro serve --worker-mode process
--workers 1``) and the router on ports the OS picks (``--port 0``; each
daemon prints the address it bound), then waits for a ping through the
router.  ``Fleet.stop`` sends SIGTERM (the daemons drain), waits, and
returns every way the fleet failed to leave cleanly: a daemon that had
to be killed, a worker child still alive, a port still listening.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .common import child_env, process_peak_rss_mb

HOST = "127.0.0.1"
BACKENDS = 2
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


class FleetError(RuntimeError):
    pass


class _Daemon:
    def __init__(self, name: str, args: List[str], log_dir: Path):
        self.name = name
        self.log = open(log_dir / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.log.close()
            raise

    def _read_port(self) -> int:
        """Parse ``... listening on HOST:PORT ...`` from the first line."""
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise FleetError(f"{self.name} did not start: {line.strip()!r}")
        address = line.split("listening on", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def terminate(self) -> bool:
        """SIGTERM and wait; True when it exited on its own."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                clean = False
        self.proc.stdout.close()
        self.log.close()
        return clean


class Fleet:
    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.backends: List[_Daemon] = []
        self.router: Optional[_Daemon] = None

    @property
    def port(self) -> int:
        assert self.router is not None
        return self.router.port

    def start(self) -> None:
        from repro.service.client import ServiceError, connect_with_retry

        self.log_dir.mkdir(parents=True, exist_ok=True)
        try:
            for index in range(BACKENDS):
                self.backends.append(
                    _Daemon(
                        f"backend{index}",
                        ["serve", "--host", HOST, "--port", "0",
                         "--worker-mode", "process", "--workers", "1"],
                        self.log_dir,
                    )
                )
            router_args = ["router", "--host", HOST, "--port", "0"]
            for backend in self.backends:
                router_args += ["--backend", f"{HOST}:{backend.port}"]
            self.router = _Daemon("router", router_args, self.log_dir)
            deadline = time.monotonic() + START_TIMEOUT_S
            while True:
                try:
                    with connect_with_retry(HOST, self.port, timeout=5.0, retries=0) as c:
                        if c.ping():
                            return
                except (ServiceError, OSError):
                    pass
                if time.monotonic() > deadline:
                    raise FleetError("router never answered a ping")
                time.sleep(0.05)
        except BaseException:
            self.stop()
            raise

    def stats(self) -> Dict[str, Any]:
        from repro.service.client import ServiceClient

        with ServiceClient(HOST, self.port) as client:
            return client.request({"op": "stats"})

    def worker_pids(self) -> List[int]:
        pids: List[int] = []
        for backend in self.stats().get("backends", []):
            supervisor = backend.get("stats", {}).get("supervisor", {})
            pids += [w["pid"] for w in supervisor.get("workers", []) if w.get("pid")]
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of the daemons and worker children."""
        pids = [d.proc.pid for d in self._daemons()] + self.worker_pids()
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def _daemons(self) -> List[_Daemon]:
        return ([self.router] if self.router else []) + self.backends

    def stop(self) -> List[str]:
        """Drain and stop everything; returns what was left behind."""
        from repro.service.client import ServiceError

        problems: List[str] = []
        try:
            workers = self.worker_pids() if self.router else []
        except (ServiceError, OSError) as err:
            workers = []
            problems.append(f"stats before stop failed: {err}")
        ports: List[Tuple[str, int]] = [(d.name, d.port) for d in self._daemons()]
        for daemon in self._daemons():  # router first: stop new traffic
            if not daemon.terminate():
                problems.append(f"{daemon.name} ignored SIGTERM and was killed")
        self.router, self.backends = None, []
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in workers:
            if _alive(pid):
                problems.append(f"worker pid {pid} outlived its daemon")
                os.kill(pid, signal.SIGKILL)
        for name, port in ports:
            if _listening(port):
                problems.append(f"{name} port {port} still accepts connections")
        return problems


def _alive(pid: int) -> bool:
    """True for a live, non-zombie process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _listening(port: int) -> bool:
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((HOST, port))
        except OSError:
            return True
    return False
