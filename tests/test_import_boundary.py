"""A process loads only what it runs.

``repro.bench`` and ``repro.testing`` re-export their names lazily: a
serial Table-1 sweep never loads the process-pool driver (and with it
concurrent.futures and multiprocessing), and comparing outputs never
loads the random-program generator.  ``repro.regalloc`` stays eager on
purpose: the perfbench tracer wraps each ``allocate_*`` found in the
package's ``vars``, and a service worker child loads every allocator at
birth, before its first job's watchdog budget starts.

The test process has imported the whole stack long before these tests
run, so each check runs in a fresh interpreter and reads back that
interpreter's ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a serial sweep and the output comparison must not import.
POOL_AND_GENERATOR = (
    "repro.bench.parallel",
    "concurrent.futures",
    "multiprocessing",
    "repro.testing.generator",
)

ALLOCATORS = ("rap", "gra", "ssaspill", "linearscan", "spillall")


def _run(body):
    """Run ``body`` in a fresh interpreter; return the JSON it prints
    last, with its ``sys.modules`` under ``"modules"``."""
    script = (
        "import json, sys\n"
        "result = {}\n"
        f"{body}\n"
        "result['modules'] = sorted(sys.modules)\n"
        "print(json.dumps(result))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules, roots):
    return sorted(
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in roots)
    )


def test_serial_sweep_loads_neither_pool_nor_generator():
    result = _run(
        "from repro.bench import harness, table1\n"
        "from repro.bench.suite import program\n"
        "table = harness.build_table1(harness.Harness([program('hanoi')]))\n"
        "result['average'] = table.overall_average()\n"
    )
    assert result["average"] is not None
    assert _loaded(result["modules"], POOL_AND_GENERATOR) == []


def test_compare_does_not_load_the_generator():
    result = _run("import repro.testing.compare")
    assert "repro.testing.generator" not in result["modules"]


def test_every_exported_name_resolves():
    result = _run(
        "import importlib\n"
        "for package in ('repro.bench', 'repro.testing'):\n"
        "    module = importlib.import_module(package)\n"
        "    result[package] = [\n"
        "        name for name in module.__all__ if getattr(module, name, None) is None\n"
        "    ]\n"
    )
    assert result["repro.bench"] == []
    assert result["repro.testing"] == []


def test_regalloc_binds_every_allocator_eagerly():
    """The tracer wraps ``allocate_*`` found in ``vars(repro.regalloc)``;
    a lazy re-export would hide them there."""
    result = _run(
        "import repro.regalloc\n"
        "result['bound'] = sorted(\n"
        "    name for name in vars(repro.regalloc) if name.startswith('allocate_')\n"
        ")\n"
    )
    assert result["bound"] == sorted(f"allocate_{name}" for name in ALLOCATORS)
