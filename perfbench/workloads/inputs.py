"""Seeded program inputs, screened by a reference execution."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

#: A reference execution may run this many cycles and wall seconds.
#: Some generated programs grow integers without bound: few cycles,
#: but each multiply slower than the last, so cycles alone never stop them.
SCREEN_CYCLES = 1_000_000
SCREEN_SECONDS = 0.5


class ScreenTimeout(Exception):
    pass


@contextmanager
def _wall_limit(seconds: float) -> Iterator[None]:
    """Raise :class:`ScreenTimeout` in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise ScreenTimeout(f"reference run exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Program:
    label: str
    source: str
    #: output of the unallocated reference image; None when not computed
    expected: Optional[list] = None


@dataclass
class Screened:
    programs: List[Program] = field(default_factory=list)
    #: generator seeds whose reference execution faulted, with the fault
    excluded: List[str] = field(default_factory=list)


def registered_programs() -> List[Program]:
    """Every program the suite registers (Table-1 set plus extensions)."""
    from repro.bench.suite import all_programs

    return [Program(bench.name, bench.source()) for bench in all_programs()]


def generated_programs(
    first_seed: int, size: str, instructions: Tuple[int, int], budget: int
) -> Screened:
    """Generated programs that run cleanly, drawn from consecutive
    generator seeds starting at ``first_seed``, until their static
    instruction counts add up to ``budget``.

    Only programs whose reference image has an instruction count within
    ``instructions`` (inclusive) are drawn, so the work a seed brings
    varies little from seed to seed.  A program whose reference
    execution raises, or outruns ``SCREEN_CYCLES`` or ``SCREEN_SECONDS``,
    is left out and listed in ``excluded`` by seed.
    """
    from repro.compiler import compile_source
    from repro.interp.machine import run_program
    from repro.testing.generator import random_source

    low, high = instructions
    screened = Screened()
    total = 0
    seed = first_seed
    while total < budget:
        source = random_source(seed, size)
        try:
            image = compile_source(source).reference_image()
            count = sum(len(function.code) for function in image.functions.values())
            stats = None
            if low <= count <= high:
                with _wall_limit(SCREEN_SECONDS):
                    stats = run_program(image, max_cycles=SCREEN_CYCLES)
        except Exception as err:  # any fault excludes the input
            screened.excluded.append(f"{seed} ({type(err).__name__}: {err})")
        else:
            if stats is not None:
                screened.programs.append(Program(f"gen{seed}", source, stats.output))
                total += count
        seed += 1
    return screened
