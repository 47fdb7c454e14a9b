"""The benchmark's workloads, by name."""

from __future__ import annotations

WORKLOADS = ("table1", "compile", "service")


def load(name: str):
    """The workload module (its ``setup`` and ``run``) for ``name``."""
    if name == "table1":
        from . import table1 as module
    elif name == "compile":
        from . import compile as module
    elif name == "service":
        from . import service as module
    else:
        raise ValueError(f"unknown workload {name!r}")
    return module
