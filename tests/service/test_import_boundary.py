"""Serving processes never load the compiler: only a worker child does.

The test process has imported the whole stack long before these tests
run, so each check runs its scenario in a fresh interpreter and reads
back that interpreter's ``sys.modules``.  Keeping the compiler out of
the daemon is also what keeps the fork safe: the child imports only
modules its parent never held an import lock on.

No fleet role loads OpenSSL either: the service's digests come from
:mod:`repro.digest`, so ``hashlib``'s ``_hashlib`` (and libcrypto with
it) must stay out of every role's ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: The compile stack: what the router and the daemon must not import.
COMPILER = (
    "repro.frontend",
    "repro.ir.builder",
    "repro.pdg.linearize",
    "repro.cfg",
    "repro.ssa",
    "repro.regalloc",
    "repro.compiler",
    "repro.resilience.pipeline",
    "repro.resilience.validators",
    "repro.interp.pycompile",
    "repro.interp.decode",
    "repro.bench",
)

FLEET = """
import json, signal, sys, threading
preloaded = "_hashlib" in sys.modules
from repro.service.router import RouterService
from repro.service.server import CompileServer, CompileService
from repro.service.workers import Supervision
from tests.service.chaos_drill import probe_request, signal_probe

service = CompileService(
    workers=1, supervision=Supervision(backoff_base_s=0.01),
)
server = CompileServer(("127.0.0.1", 0), service)
threading.Thread(target=server.serve_forever, daemon=True).start()
router = RouterService([server.server_address[:2]])

def compile(tag):
    response = router.handle({"op": "compile", "allocator": "rap", "k": 5,
                              "source": "void main() { print(%d); }" % tag})
    return response.get("output") or response["error"]["kind"]

def crash():
    response = signal_probe(router.handle,
                            lambda: service.submit({"op": "stats"}),
                            probe_request("fleet"), signal.SIGKILL)
    return response["error"]["kind"]

answers = [compile(1), crash(), compile(3)]
router.stop()
server.drain_and_shutdown(timeout=10.0)
server.server_close()
print(json.dumps({"answers": answers, "preloaded": preloaded,
                  "modules": sorted(sys.modules)}))
"""

#: What a worker child loads: ``_worker_child_main``'s imports, then one
#: cold compile that executes (the fork inherits the daemon's modules,
#: which ``FLEET`` covers).
WORKER = """
import json, sys
preloaded = "_hashlib" in sys.modules
from repro import compiler, regalloc
from repro.resilience.pipeline import PassPipeline
from repro.service.server import compile_cold

body = compile_cold(PassPipeline(), {
    "source": "void main() { print(4); }", "rung": "rap", "k": 5,
    "schedule": False, "execute": True, "entry": "main",
    "max_cycles": None, "filename": "<request>",
})
print(json.dumps({"output": body["output"], "preloaded": preloaded,
                  "modules": sorted(sys.modules)}))
"""


def _run(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _compiler_modules(modules):
    return sorted(
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in COMPILER)
    )


@pytest.fixture(scope="module")
def fleet():
    return _run(FLEET)


def _assert_no_openssl(result):
    if result["preloaded"]:
        pytest.skip("the interpreter loaded _hashlib before repro was imported")
    assert "_hashlib" not in result["modules"]


def test_daemon_and_router_serve_without_the_compiler(fleet):
    # compiled, crashed the worker, compiled again on the respawned one
    assert fleet["answers"] == [[1], "worker-crash", [3]]
    assert _compiler_modules(fleet["modules"]) == []


def test_router_and_daemon_never_load_openssl(fleet):
    _assert_no_openssl(fleet)


def test_worker_compile_never_loads_openssl():
    result = _run(WORKER)
    assert result["output"] == [4]
    _assert_no_openssl(result)


def test_router_import_loads_neither_compiler_nor_workers():
    result = _run(
        "import json, sys\n"
        "import repro.service.router\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))\n"
    )
    modules = result["modules"]
    assert _compiler_modules(modules) == []
    assert "repro.service.workers" not in modules
    assert "repro.service.server" not in modules
    assert "multiprocessing" not in modules
