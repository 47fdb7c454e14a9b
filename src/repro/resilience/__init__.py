"""Resilience subsystem: staged pipeline, fault injection, and triage.

This package is the repository's answer to "what happens when an
allocator is wrong?".  Four layers, each usable on its own:

* :mod:`.pipeline` — the compiler as named, verified stages with
  structured :class:`~repro.resilience.errors.StageError` diagnostics,
  and the one whole-program allocation driver (``allocate_program``);
* :mod:`.validators` — independent semantic checkers that re-prove the
  transforming phases (spill-code motion, Figure-6 peephole, list
  scheduling, SSA construction/destruction, and the chordal coloring of
  the SSA rung) sound from scratch after every run;
* :mod:`.fallback` — the rap → gra → ssaspill → linearscan → spillall
  retry ladder (``walk_ladder``) the benchmark harness and the service
  worker walk, so a sweep or a request degrades instead of dying;
* :mod:`.faults` — deterministic probe points inside the allocators,
  the scheduler, and the rewrite phases that let tests *prove* the
  verification and fallback nets catch corruption;
* :mod:`.telemetry` — per-stage wall time and allocation counters
  (rounds, spills, peephole hits), surfaced by ``repro run --profile``
  and the compile service's responses;
* :mod:`.triage` / :mod:`.fuzz` — differential fuzzing with
  delta-minimized repro bundles written to ``artifacts/``.

The package itself re-exports only the compiler-free layers (errors,
fallback, telemetry), which the service processes share; import the
others from their submodules.
"""

from .errors import (
    ChordalValidationError,
    DestructValidationError,
    MiscompileError,
    MotionValidationError,
    PeepholeValidationError,
    ScheduleValidationError,
    SSAValidationError,
    StageContext,
    StageError,
)
from .fallback import FALLBACK_CHAIN, FallbackEvent, chain_for
from .telemetry import MetricsCollector, StageMetrics, aggregate

__all__ = [
    "ChordalValidationError",
    "DestructValidationError",
    "FALLBACK_CHAIN",
    "FallbackEvent",
    "MetricsCollector",
    "MiscompileError",
    "MotionValidationError",
    "PeepholeValidationError",
    "SSAValidationError",
    "ScheduleValidationError",
    "StageContext",
    "StageError",
    "StageMetrics",
    "aggregate",
    "chain_for",
]
