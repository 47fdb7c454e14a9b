"""Text report for the ablation studies (``python -m repro.bench.ablations``).

Each section answers one question from DESIGN.md §5 with executed-cycle
(and load/store/copy) numbers across a subset of the suite.  Every
configuration is declared once, as data, in :data:`ABLATIONS`; the
tier-1 claims in ``tests/bench/test_paper_claims.py`` read the same
entries, so the report and the gated claims cannot drift apart.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence

from ..interp.stats import Counters
from ..resilience.pipeline import PassPipeline, PipelineConfig
from .harness import Harness
from .suite import BenchProgram, program, program_names

DEFAULT_PROGRAMS = ("hsort", "sieve", "queens", "linpack")
DEFAULT_K = 3


@dataclass(frozen=True)
class Ablation:
    """One report row: which allocator runs, with which allocation
    kwargs (:meth:`Harness.run` keywords), over regions of which
    granularity (the pdg-build stage's ``"statement"`` or ``"merged"``)."""

    label: str
    allocator: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    granularity: str = "statement"

    def total(self, harness: Harness, bench: BenchProgram, k: int) -> Counters:
        """Whole-program executed counters of *bench* at *k* registers;
        *harness* must compile at this row's granularity."""
        return harness.run(bench, self.allocator, k, **self.kwargs).stats.total


GRA = Ablation("GRA baseline", "gra")
RAP = Ablation("RAP (all phases)", "rap")
SSA_SPILL = Ablation("SSA spill-then-color", "ssaspill")
RAP_NO_PEEPHOLE = Ablation(
    "RAP, no peephole", "rap", {"enable_peephole": False}
)
RAP_NO_MOTION = Ablation("RAP, no motion", "rap", {"enable_motion": False})
RAP_GLOBAL_PEEPHOLE = Ablation(
    "RAP, global peephole", "rap", {"global_peephole": True}
)
RAP_REMAT = Ablation("RAP, rematerialization", "rap", {"remat": True})
GRA_REMAT = Ablation("GRA, rematerialization", "gra", {"remat": True})
GRA_COALESCE = Ablation("GRA + coalescing", "gra", {"pre_coalesce": True})
RAP_COALESCE = Ablation("RAP + coalescing", "rap", {"pre_coalesce": True})
GRA_CHAITIN = Ablation("GRA, Chaitin coloring", "gra", {"optimistic": False})
GRA_LOOP_WEIGHT = Ablation(
    "GRA, loop-weighted costs", "gra", {"loop_weight": True}
)
RAP_MERGED = Ablation("RAP, merged regions", "rap", granularity="merged")

#: the report's rows, in print order.
ABLATIONS = (
    GRA,
    RAP,
    SSA_SPILL,
    RAP_NO_PEEPHOLE,
    RAP_NO_MOTION,
    RAP_GLOBAL_PEEPHOLE,
    RAP_REMAT,
    GRA_REMAT,
    GRA_COALESCE,
    RAP_COALESCE,
    GRA_CHAITIN,
    GRA_LOOP_WEIGHT,
    RAP_MERGED,
)


def _row(label: str, counters) -> str:
    return (
        f"  {label:<28} cycles={counters.cycles:<8} loads={counters.loads:<7}"
        f" stores={counters.stores:<6} copies={counters.copies}"
    )


def report(names: Sequence[str], k: int = DEFAULT_K, stream=None) -> None:
    stream = stream or sys.stdout
    harnesses: Dict[str, Harness] = {}
    print(f"Ablation report (k={k})", file=stream)
    for bench in (program(name) for name in names):
        print(f"\n== {bench.name} ==", file=stream)
        for ablation in ABLATIONS:
            harness = harnesses.get(ablation.granularity)
            if harness is None:
                harness = harnesses[ablation.granularity] = Harness()
                harness.pipeline = PassPipeline(
                    PipelineConfig(granularity=ablation.granularity)
                )
            counters = ablation.total(harness, bench, k)
            print(_row(ablation.label, counters), file=stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument(
        "--programs",
        nargs="*",
        default=list(DEFAULT_PROGRAMS),
        choices=program_names(),
        metavar="NAME",
    )
    args = parser.parse_args(argv)
    report(args.programs, k=args.k)
    return 0


if __name__ == "__main__":
    sys.exit(main())
