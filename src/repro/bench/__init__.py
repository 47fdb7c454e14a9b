"""Benchmark suite and Table-1 harness."""

from .harness import Harness, Table1, build_table1
from .parallel import CellSpec, cells_for, run_cells
from .suite import PROGRAMS, BenchProgram, all_programs, all_routines, program

__all__ = [
    "Harness",
    "Table1",
    "build_table1",
    "PROGRAMS",
    "BenchProgram",
    "CellSpec",
    "program",
    "all_programs",
    "all_routines",
    "cells_for",
    "run_cells",
]
