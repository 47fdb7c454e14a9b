"""Benchmark suite and Table-1 harness."""

from .. import _lazy_exports

# A serial sweep never loads ``parallel`` (and with it concurrent.futures
# and multiprocessing): only ``--jobs N`` and ``run_cells`` callers do.
_EXPORTS = {
    ".harness": ("Harness", "Table1", "build_table1"),
    ".parallel": ("CellSpec", "cells_for", "run_cells"),
    ".suite": ("PROGRAMS", "BenchProgram", "program", "all_programs", "all_routines"),
}
__getattr__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
