"""The resilient compilation pipeline.

:class:`PassPipeline` executes the compiler as *named stages* —

    parse -> sema -> pdg-build -> allocate -> validate [-> schedule] -> execute

— each wrapped so that any failure surfaces as a structured
:class:`~repro.resilience.errors.StageError` identifying the stage, the
function, the allocator, and the register count, instead of a bare
traceback from somewhere inside the allocator.  The validate stage runs
every structural verifier the repository has (iloc well-formedness,
physical-register bounds, PDG tree shape, spill-slot discipline, and an
independent recheck of the coloring against a rebuilt interference graph,
plus the transformation validators of
:mod:`repro.resilience.validators`, which re-prove RAP's spill-code
motion and Figure-6 peephole sound from scratch), so corruption is caught
*at the stage that produced it*, not three stages later as a wrong
answer.  The optional schedule stage list-schedules the allocated code
and proves the emitted order is a topological order of an independently
re-derived dependence DAG before accepting it.

:meth:`PassPipeline.allocate_program` is the one allocation driver.  The
harness and the service worker walk it down the fallback ladder
(:func:`repro.resilience.fallback.walk_ladder`); the CLI, crash triage
(:mod:`repro.resilience.triage`) and the corpus scan call it directly.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..frontend import analyze, parse
from ..frontend.errors import FrontendError
from ..interp.machine import FunctionImage, Machine, ProgramImage
from ..interp.memory import MachineFault
from ..interp.stats import ExecStats
from ..ir.builder import build_module
from ..ir.spillcheck import check_spill_discipline
from ..ir.validate import check_allocated, check_assignment, check_wellformed
from ..pdg.graph import PDGFunction
from ..pdg.validate import check_pdg
from .config import PipelineConfig
from .errors import MiscompileError, StageContext, StageError
from .telemetry import MetricsCollector

#: Stage names, in pipeline order.  The schedule stage is optional
#: (``PipelineConfig.schedule``); when off, it simply never runs.
STAGES = (
    "parse",
    "sema",
    "pdg-build",
    "allocate",
    "validate",
    "schedule",
    "execute",
)


def _allocator_registry() -> Dict[str, Callable[..., Any]]:
    from ..regalloc import (
        allocate_gra,
        allocate_linearscan,
        allocate_rap,
        allocate_spillall,
        allocate_ssaspill,
    )

    return {
        "gra": allocate_gra,
        "rap": allocate_rap,
        "ssaspill": allocate_ssaspill,
        "linearscan": allocate_linearscan,
        "spillall": allocate_spillall,
    }


def _drop_validation_data(result: Any) -> None:
    """Free the parts of an ``AllocationResult`` that only the validate
    stage reads, once it has run: the body before physical registers
    (``virtual_code``), RAP's motion and peephole snapshots, and
    ssaspill's certificate.  A whole program's results are kept until
    its last function is allocated; these copies need not be."""
    for name in ("virtual_code", "pre_motion_code", "pre_peephole_code", "cert"):
        if hasattr(result, name):
            setattr(result, name, None)
    if hasattr(result, "loop_spans"):
        result.loop_spans = {}


class PassPipeline:
    """Runs compiler stages with verification and structured failure.

    ``defaults`` (program name, seed, ...) are merged into every stage
    context, so a pipeline created for one fuzz seed stamps that seed on
    every error it ever raises.

    ``metrics`` is an optional
    :class:`~repro.resilience.telemetry.MetricsCollector`; when set,
    every stage execution records its wall time into it (successful or
    not), and the allocate stage additionally records the allocator's
    round/spill/peephole counters.  Callers may swap the attribute
    between runs — the benchmark harness attaches a fresh collector per
    sweep cell.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        metrics: Optional[MetricsCollector] = None,
        **defaults: Any,
    ):
        self.config = config or PipelineConfig()
        self.metrics = metrics
        self.defaults = defaults

    # -- context plumbing ---------------------------------------------------

    def context(self, stage: str, **kw: Any) -> StageContext:
        merged: Dict[str, Any] = dict(self.defaults)
        merged.update({k: v for k, v in kw.items() if v is not None})
        extra = merged.pop("extra", {})
        return StageContext(stage=stage, extra=extra, **merged)

    def _run_stage(
        self,
        stage: str,
        thunk: Callable[[], Any],
        **ctx_kw: Any,
    ) -> Any:
        started = time.perf_counter()
        try:
            return thunk()
        except StageError:
            raise
        except FrontendError as err:
            if not self.config.wrap_frontend_errors:
                raise
            raise StageError(str(err), self.context(stage, **ctx_kw), err) from err
        except MachineFault as err:
            raise StageError(str(err), self.context(stage, **ctx_kw), err) from err
        except Exception as err:
            raise StageError(str(err), self.context(stage, **ctx_kw), err) from err
        finally:
            if self.metrics is not None:
                self.metrics.record_duration(
                    stage, time.perf_counter() - started
                )

    # -- front-end stages ---------------------------------------------------

    def compile(self, source: str, filename: str = "<string>"):
        """parse -> sema -> pdg-build; returns a ``CompiledProgram``."""
        from ..compiler import CompiledProgram  # late: avoids import cycle

        program = self._run_stage(
            "parse", lambda: parse(source, filename), filename=filename
        )
        info = self._run_stage(
            "sema", lambda: analyze(program), filename=filename
        )
        module = self._run_stage(
            "pdg-build",
            lambda: build_module(
                program, info, granularity=self.config.granularity
            ),
            filename=filename,
            granularity=self.config.granularity,
        )
        return CompiledProgram(module)

    # -- back-end stages ----------------------------------------------------

    def allocate(
        self,
        func: PDGFunction,
        allocator: str,
        k: int,
        **alloc_kwargs: Any,
    ):
        """allocate -> validate for one function; returns the
        ``AllocationResult`` (``func`` is mutated by RAP, as always).

        ``schedule=True``/``False`` in ``alloc_kwargs`` overrides
        ``config.schedule`` for this call only — the channel the
        benchmark harness uses to schedule the RAP column of a sweep
        without scheduling the GRA baseline (the same pipeline serves
        both columns, and per-allocator kwargs already ride through the
        serial and ``--jobs`` paths identically)."""
        schedule_override = alloc_kwargs.pop("schedule", None)
        do_schedule = (
            self.config.schedule
            if schedule_override is None
            else bool(schedule_override)
        )
        registry = _allocator_registry()
        if allocator not in registry:
            raise ValueError(f"unknown allocator {allocator!r}")
        if self.config.max_alloc_rounds is not None:
            alloc_kwargs.setdefault("max_rounds", self.config.max_alloc_rounds)

        result = self._run_stage(
            "allocate",
            lambda: registry[allocator](func, k, **alloc_kwargs),
            function=func.name,
            allocator=allocator,
            k=k,
        )
        if self.metrics is not None:
            self.metrics.record_allocation(result)
        if self.config.verify:
            self._run_stage(
                "validate",
                lambda: self.validate(func, allocator, k, result),
                function=func.name,
                allocator=allocator,
                k=k,
            )
        if do_schedule:
            self._run_stage(
                "schedule",
                lambda: self._schedule(func, allocator, k, result),
                function=func.name,
                allocator=allocator,
                k=k,
            )
        return result

    def allocate_program(
        self,
        prog,
        allocator: str,
        k: int,
        *,
        coalesce: bool = False,
        **alloc_kwargs: Any,
    ) -> Tuple[ProgramImage, Dict[str, Any]]:
        """allocate -> validate every function of a fresh copy of
        ``prog`` (a ``CompiledProgram``); returns the executable image
        and each function's ``AllocationResult`` by name.
        ``coalesce=True`` first runs conservative coalescing (the paper's
        future-work extension) on each function."""
        from ..compiler import param_slots  # late: avoids import cycle

        module = prog.fresh_module()
        functions: Dict[str, FunctionImage] = {}
        results: Dict[str, Any] = {}
        for name, func in module.functions.items():
            if coalesce:
                from ..regalloc.coalesce import coalesce_function

                coalesce_function(func, k)
            results[name] = result = self.allocate(func, allocator, k, **alloc_kwargs)
            _drop_validation_data(result)
            functions[name] = FunctionImage(name, result.code, param_slots(func))
        return ProgramImage(list(module.globals.values()), functions), results

    def _schedule(self, func: PDGFunction, allocator: str, k: int, result):
        """List-schedule the allocated code, then prove the reordering
        sound against an independently re-derived dependence relation."""
        from ..sched.list_scheduler import schedule_code
        from .validators import validate_schedule

        scheduled, report = schedule_code(result.code, function=func.name)
        if self.config.verify_schedule:
            validate_schedule(
                result.code,
                scheduled,
                self.context(
                    "schedule", function=func.name, allocator=allocator, k=k
                ),
            )
        result.code = scheduled
        if self.metrics is not None:
            self.metrics.record_schedule(report)
        return report

    def validate(self, func: PDGFunction, allocator: str, k: int, result) -> None:
        """Every structural invariant the allocated code must satisfy."""
        check_wellformed(result.code)
        check_allocated(result.code, k)
        if allocator == "rap":
            # RAP rewrites the PDG in place; the tree must survive intact
            # and uniformly physical.
            check_pdg(func, expect_kind="p")
        if allocator != "spillall" and self.config.verify_spill_discipline:
            # The spill-everywhere fallback legitimately mirrors the
            # program's own (possibly path-dependent) def-before-use
            # structure, so the must-store analysis only applies to the
            # real allocators, whose spill loads must be self-initializing.
            from ..compiler import param_slots

            check_spill_discipline(result.code, initialized=param_slots(func))
        if self.config.verify_assignment:
            virtual_code = getattr(result, "virtual_code", None)
            if virtual_code is not None:
                check_assignment(virtual_code, result.assignment)
        if allocator == "rap":
            # Independent transformation validators: recheck the motion
            # and peephole phases from the snapshots RAP captured, rather
            # than trusting their own analyses.
            from .validators import validate_motion, validate_peephole

            context = self.context(
                "validate", function=func.name, allocator=allocator, k=k
            )
            if self.config.verify_motion:
                validate_motion(func, result, context)
            if self.config.verify_peephole:
                pre = getattr(result, "pre_peephole_code", None)
                if pre is not None:
                    validate_peephole(pre, result.code, context)
        if allocator == "ssaspill" and self.config.verify_ssa:
            # The SSA rung's three independent validators: rename recheck
            # against recomputed reaching definitions, symbolic replay of
            # every parallel-copy window, and the chordal
            # zero-coloring-time-spill re-proof.
            cert = getattr(result, "cert", None)
            if cert is not None:
                from .validators import (
                    validate_chordal,
                    validate_destruction,
                    validate_ssa_construction,
                )

                context = self.context(
                    "validate", function=func.name, allocator=allocator, k=k
                )
                validate_ssa_construction(cert, context)
                virtual_code = getattr(result, "virtual_code", None)
                validate_destruction(cert, virtual_code, context)
                validate_chordal(cert, virtual_code, context)

    def execute(
        self,
        image: ProgramImage,
        entry: str = "main",
        args: Sequence = (),
        max_cycles: Optional[int] = None,
        **ctx_kw: Any,
    ) -> ExecStats:
        """Run a program image under the configured cycle budget."""

        def thunk() -> ExecStats:
            machine = Machine(
                image, max_cycles=max_cycles or self.config.max_cycles
            )
            try:
                machine.run(entry, args)
            finally:
                # Pre-decode and Python-translation time are subsets of
                # the execute stage's wall time, surfaced separately so
                # profiles show the split; the tier census records what
                # dispatch actually ran on (a tracer or an armed fault
                # plan demotes a machine to the slow path).
                if self.metrics is not None:
                    if machine.decode_seconds:
                        self.metrics.record_duration(
                            "decode", machine.decode_seconds
                        )
                    if machine.pycompile_seconds:
                        self.metrics.record_duration(
                            "pycompile", machine.pycompile_seconds
                        )
                    self.metrics.record_execute_tier(
                        machine.stats.interp_tier or machine.interp_tier()
                    )
            return machine.stats

        return self._run_stage("execute", thunk, **ctx_kw)

    def check_output(
        self,
        actual: Sequence,
        expected: Sequence,
        **ctx_kw: Any,
    ) -> None:
        """Compare a run's output against the reference; NaN-tolerant.

        Raises :class:`MiscompileError` with the first divergence index —
        never a bare ``AssertionError`` and never a false positive on
        NaN-producing float programs.
        """
        from ..testing.compare import first_divergence, outputs_equal

        started = time.perf_counter()
        try:
            if outputs_equal(actual, expected):
                return
            index = first_divergence(actual, expected)
            context = self.context("compare", **ctx_kw)
            raise MiscompileError(
                f"output diverges from reference at index {index}",
                context,
                index,
                expected,
                actual,
            )
        finally:
            if self.metrics is not None:
                self.metrics.record_duration(
                    "compare", time.perf_counter() - started
                )
