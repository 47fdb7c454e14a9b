"""The pipeline's configuration, apart from the pipeline itself.

The service daemon holds and hashes a :class:`PipelineConfig` (it is
part of every cache key) but never runs a stage, so this module imports
nothing from the compiler; :mod:`.pipeline` re-exports the name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PipelineConfig:
    """Knobs of one pipeline instance.

    ``max_cycles`` is the execute-stage cycle budget.  The validate
    stage always runs; the ``verify_*`` switches exist so tests can
    prove a given corruption is caught by a given check — production
    callers leave them all on.
    """

    granularity: str = "statement"
    max_cycles: int = 50_000_000
    verify_spill_discipline: bool = True
    verify_assignment: bool = True
    #: independent transformation validators (see
    #: :mod:`repro.resilience.validators`): recheck RAP's spill-code
    #: motion and Figure-6 peephole from scratch after every allocation.
    verify_motion: bool = True
    verify_peephole: bool = True
    #: the three SSA validators (construction, destruction, chordal
    #: coloring) run against the ``ssaspill`` allocator's certificate.
    verify_ssa: bool = True
    #: run the list scheduler as its own pipeline stage after validate,
    #: and (when ``verify_schedule``) prove the emitted order is a
    #: topological order of an independently re-derived dependence DAG.
    schedule: bool = False
    verify_schedule: bool = True
    #: ``False`` re-raises front-end errors unwrapped (the legacy
    #: :func:`repro.compiler.compile_source` contract: callers get
    #: :class:`~repro.frontend.errors.FrontendError` with a location).
    wrap_frontend_errors: bool = True
