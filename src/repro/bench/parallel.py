"""Process-pool execution of benchmark sweep cells.

The sweep's unit of work is one *cell*: measuring one (program,
allocator, k) combination end to end — compile, allocate through the
fallback ladder, execute, compare against the reference output.  Cells
are independent by construction (each run allocates a fresh module
copy), which makes them safe to farm out to worker processes:

* every worker holds a private :class:`~repro.bench.harness.Harness`
  whose compile/reference caches warm up over the cells it serves;
* the fault plan active in the parent when the pool starts is re-armed
  inside every worker, so probe points fire in parallel sweeps just as
  they do serially (occurrence counters — ``times``/``skip`` — are
  per-process; use ``times=None`` specs when a probe must hit every
  matching cell regardless of scheduling);
* a cell whose fallback ladder engages degrades *inside its worker*
  exactly as it would serially, and comes back as an ordinary
  :class:`~repro.bench.harness.ProgramRun` with ``fallbacks_taken`` set;
* a :class:`~repro.resilience.errors.StageError` that escapes a
  worker's ladder (only possible with ``fallback=False`` — the
  spill-everywhere bottom rung cannot fail) comes back frozen as plain
  data and is re-raised by the parent for the *earliest cell in serial
  order*, so a dying sweep dies on the same cell with the same
  diagnostic as a serial one.  Freezing is subclass-aware: miscompiles
  and the transformation-validator errors (motion / schedule / peephole
  / ssa / destruct / chordal) thaw back to their own types, so callers
  that catch a specific class behave identically with and without
  ``--jobs``.

Scheduling is one cell per task (``chunksize=1``): the suite's cell
costs are wildly uneven (tens of milliseconds to tens of seconds), and
coarser chunks would serialize the tail.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..resilience import faults
from ..resilience.errors import StageError
from ..resilience.pipeline import PassPipeline, PipelineConfig


@dataclass(frozen=True)
class CellSpec:
    """One unit of sweep work, picklable and hashable.

    ``alloc_kwargs`` is a sorted tuple of items (not a dict) so specs
    can key result maps.
    """

    program: str
    allocator: str
    k: int
    pre_coalesce: bool = False
    alloc_kwargs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.program, self.allocator, self.k)


#: The per-process harness, created once by :func:`_init_worker`.
_WORKER_HARNESS = None


def _init_worker(
    config: PipelineConfig,
    fallback: bool,
    fault_specs: Tuple[faults.FaultSpec, ...],
) -> None:
    global _WORKER_HARNESS
    from .harness import Harness  # late: harness imports this module

    if fault_specs:
        faults.install(*fault_specs)
    _WORKER_HARNESS = Harness(fallback=fallback, pipeline=PassPipeline(config))


def _run_cell(spec: CellSpec):
    """Worker body: returns ``(spec, run, frozen_error)``."""
    from .suite import program

    bench = program(spec.program)
    try:
        run = _WORKER_HARNESS.run(
            bench,
            spec.allocator,
            spec.k,
            pre_coalesce=spec.pre_coalesce,
            **dict(spec.alloc_kwargs),
        )
        return spec, run, None
    except StageError as err:
        return spec, None, err.freeze()


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int,
    harness=None,
) -> Dict[Tuple[str, str, int], Any]:
    """Run every cell in a pool of ``jobs`` workers; returns
    ``{(program, allocator, k): ProgramRun}``.

    ``harness`` supplies the configuration the workers replicate
    (pipeline config and ``fallback``); its caches are
    not shipped — each worker compiles what it needs.  If any cell's
    ladder-escaping failure comes back, the one earliest in ``specs``
    order is re-raised after the pool drains, mirroring a serial sweep's
    first-failure behaviour.
    """
    from .harness import Harness

    if harness is None:
        harness = Harness()
    plan = faults.active()
    fault_specs = tuple(plan.specs) if plan is not None else ()

    runs: Dict[Tuple[str, str, int], Any] = {}
    errors: Dict[Tuple[str, str, int], dict] = {}
    with ProcessPoolExecutor(
        max_workers=max(1, jobs),
        initializer=_init_worker,
        initargs=(
            harness.pipeline.config,
            harness.fallback,
            fault_specs,
        ),
    ) as pool:
        for spec, run, frozen in pool.map(_run_cell, specs):
            if frozen is not None:
                errors[spec.key] = frozen
            else:
                runs[spec.key] = run

    for spec in specs:
        if spec.key in errors:
            raise StageError.thaw(errors[spec.key])
    return runs


def cells_for(
    names: Sequence[str],
    k_values: Sequence[int],
    allocators: Sequence[str] = ("gra", "rap"),
) -> List[CellSpec]:
    """Enumerate sweep cells in serial (program, k, allocator) order."""
    return [
        CellSpec(name, allocator, k)
        for name in names
        for k in k_values
        for allocator in allocators
    ]
