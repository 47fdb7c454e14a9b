"""The benchmark suite of the paper's §4.

"Performance measurements of RAP and GRA have been taken for 13 of the
Livermore Loops, the cLinpack routines, implementations of heapsort,
hanoi, sieve and some of the Stanford routines."  Table 1 reports 37
routines; this registry maps each program to the routine rows it
contributes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

_PROGRAM_DIR = os.path.join(os.path.dirname(__file__), "programs")


@dataclass(frozen=True)
class BenchProgram:
    """One Mini-C benchmark program and its reported routine rows."""

    name: str
    filename: str
    routines: List[str]
    group: str
    description: str = ""
    max_cycles: int = 5_000_000
    #: row name -> list of functions whose counters make up that row
    #: (defaults to the identically named function).
    rollup: Optional[Dict[str, List[str]]] = None

    @property
    def path(self) -> str:
        return os.path.join(_PROGRAM_DIR, self.filename)

    def source(self) -> str:
        with open(self.path) as handle:
            return handle.read()

    def functions_for(self, routine: str) -> List[str]:
        if self.rollup and routine in self.rollup:
            return self.rollup[routine]
        return [routine]


LIVERMORE_ROUTINES = [
    "loop1",
    "loop2",
    "loop3",
    "loop5",
    "loop6",
    "loop7",
    "loop9",
    "loop10",
    "loop11",
    "loop12",
    "loop21",
    "loop23",
    "loop24",
]

PROGRAMS: List[BenchProgram] = [
    BenchProgram(
        "livermore",
        "livermore.mc",
        LIVERMORE_ROUTINES,
        group="Livermore",
        description="13 of the Livermore Loops (kernels 1,2,3,5,6,7,9,10,11,12,21,23,24)",
    ),
    BenchProgram(
        "linpack",
        "linpack.mc",
        ["matgen", "daxpy", "ddot", "dscal", "idamax"],
        group="cLinpack",
        description="cLinpack BLAS-1 routines driven by a dgefa LU factorization",
    ),
    BenchProgram(
        "hsort", "hsort.mc", ["hsort"], group="hsort",
        description="heapsort with iterative sift-down",
        rollup={"hsort": ["hsort", "sift"]},
    ),
    BenchProgram(
        "hanoi", "hanoi.mc", ["hanoi"], group="Hanoi",
        description="towers of Hanoi, 9 discs",
    ),
    BenchProgram(
        "nsieve", "nsieve.mc", ["nsieve"], group="Nsieve",
        description="repeated sieve over decreasing sizes",
    ),
    BenchProgram(
        "sieve", "sieve.mc", ["sieve"], group="seive",
        description="sieve of Eratosthenes",
    ),
    BenchProgram(
        "intmm",
        "intmm.mc",
        ["initmatrix", "innerproduct", "intmm"],
        group="Stanford",
        description="Stanford integer matrix multiply",
    ),
    BenchProgram(
        "perm",
        "perm.mc",
        ["permute", "swap", "initialize", "perm"],
        group="Stanford",
        description="Stanford recursive permutations",
    ),
    BenchProgram(
        "puzzle",
        "puzzle.mc",
        ["fit", "place", "trial", "remove", "puzzle"],
        group="Stanford",
        description="Stanford 3-D packing puzzle (scaled to a 4^3 cube)",
    ),
    BenchProgram(
        "queens",
        "queens.mc",
        ["queens", "try", "doit"],
        group="Stanford",
        description="Stanford eight queens, solved 10 times",
    ),
]


#: Extended suite: additional workloads this repository ships beyond the
#: paper's Table-1 set (not part of the table reproduction, but covered by
#: the differential tests and available to the harness/CLI).
EXTRA_PROGRAMS: List[BenchProgram] = [
    BenchProgram(
        "bubble", "bubble.mc", ["bubble"], group="Extended",
        description="Stanford bubble sort",
    ),
    BenchProgram(
        "quicksort", "quicksort.mc", ["quick"], group="Extended",
        description="Stanford quicksort (recursive)",
    ),
    BenchProgram(
        "ackermann", "ackermann.mc", ["ack"], group="Extended",
        description="Ackermann(2,4)/(3,3): deep recursion",
    ),
    BenchProgram(
        "matmul", "matmul.mc", ["mm_naive", "mm_unrolled2"], group="Extended",
        description="float matrix multiply, naive and 2x-unrolled",
    ),
]


def all_programs() -> List[BenchProgram]:
    """Every registered program: the Table-1 set plus the extensions.
    This is the registry sweep workers resolve :class:`CellSpec` program
    names against, so any program listed here can be swept in parallel."""
    return PROGRAMS + EXTRA_PROGRAMS


def program(name: str) -> BenchProgram:
    for bench in all_programs():
        if bench.name == name:
            return bench
    raise KeyError(name)


def program_names() -> List[str]:
    """Names :func:`program` resolves: the ``--programs`` choices."""
    return [bench.name for bench in all_programs()]


def all_routines() -> List[str]:
    """Every Table-1 routine row, in suite order."""
    rows: List[str] = []
    for bench in PROGRAMS:
        rows.extend(bench.routines)
    return rows
