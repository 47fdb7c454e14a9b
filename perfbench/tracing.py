"""Spans recorded from outside the program, by wrapping public functions.

A :class:`Tracer` replaces a function with a timing wrapper *under the
name its caller looks it up by* (``repro.resilience.pipeline.parse``,
not ``repro.frontend.parse``: the pipeline imported the name, so a
wrapper on the defining module would never be called).  Spans live in
memory with their parent and are written out when the run ends; leaving
the ``with`` block restores every original function.

Wrapped code must run on one thread: the open-span stack is shared.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: An "after" hook sees the call's arguments and result and may bump
#: counters: ``hook(tracer, args, result)``.
AfterHook = Callable[["Tracer", tuple, Any], None]

_MISSING = object()


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index or -1]`` per finished or
        #: open span, in start order.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def count(self, name: str, delta: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        index = len(self.spans)
        record = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(
        self, owner: Any, attr: str, name: str, after: Optional[AfterHook] = None
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is a module or a class; ``attr`` must be defined on it
        directly, so restoring puts back exactly what was there.
        """
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} defines no {attr!r}")
        target = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer.span(name, target, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = target
        wrapper.__name__ = getattr(target, "__name__", attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # -- reading --------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus what its children cover.

        Children of one span never overlap (one thread), so the covered
        time is the sum of the direct children's durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
            )
            handle.write("\n")


# -- the program's layers -------------------------------------------------------

ALLOCATORS = ("rap", "gra", "ssaspill", "linearscan", "spillall")

#: (module attribute on ``repro.resilience.pipeline``, validator name)
PIPELINE_CHECKS = (
    ("check_wellformed", "wellformed"),
    ("check_allocated", "allocated"),
    ("check_pdg", "pdg"),
    ("check_spill_discipline", "spill_discipline"),
    ("check_assignment", "assignment"),
)
#: validators the pipeline imports from ``repro.resilience.validators``
#: at call time
TRANSFORM_VALIDATORS = (
    "motion",
    "peephole",
    "ssa_construction",
    "destruction",
    "chordal",
)
VALIDATORS = tuple(name for _, name in PIPELINE_CHECKS) + TRANSFORM_VALIDATORS


def _allocation_counters(tracer: Tracer, args: tuple, result: Any) -> None:
    counters = result.telemetry()
    tracer.count("regalloc.rounds", counters.get("rounds", 0))
    tracer.count("regalloc.spills", counters.get("spills", 0))


def _rap_counters(tracer: Tracer, args: tuple, result: Any) -> None:
    # Other allocators report ``analysis_builds`` too (ssaspill: its
    # rounds); only RAP's belong to ``rap.analysis_builds``.
    _allocation_counters(tracer, args, result)
    tracer.count("rap.analysis_builds", result.telemetry().get("analysis_builds", 0))


def _executed_cycles(tracer: Tracer, args: tuple, result: Any) -> None:
    machine = args[0]
    tracer.count("interp.cycles", machine.stats.total.cycles)


def _translation_counter():
    """An after-hook for ``compile_decoded`` that counts translations.

    A cache hit answers with the artifact an earlier call returned, so a
    result not seen before is a fresh translation.  Seen artifacts are
    kept alive, so their ids are never reused for a later one.
    """
    seen: Dict[int, Any] = {}

    def count(tracer: Tracer, args: tuple, result: Any) -> None:
        if id(result) not in seen:
            seen[id(result)] = result
            tracer.count("interp.translations")

    return count


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the README's table)."""
    import repro.interp.decode as decode
    import repro.interp.pycompile as pycompile
    import repro.regalloc as regalloc
    import repro.regalloc.rap.allocator as rap
    import repro.resilience.pipeline as pipeline
    import repro.resilience.validators as validators
    import repro.service.server as server
    from repro.compiler import CompiledProgram
    from repro.interp.machine import Machine

    tracer.wrap(pipeline, "parse", "frontend.parse")
    tracer.wrap(pipeline, "analyze", "frontend.sema")
    tracer.wrap(pipeline, "build_module", "ir.build_module")
    tracer.wrap(CompiledProgram, "fresh_module", "compiler.fresh_module")
    for allocator in ALLOCATORS:
        tracer.wrap(
            regalloc,
            f"allocate_{allocator}",
            f"regalloc.{allocator}",
            after=_rap_counters if allocator == "rap" else _allocation_counters,
        )
    tracer.wrap(rap, "allocate_region", "rap.region_alloc")
    tracer.wrap(rap, "move_spill_code", "rap.motion")
    tracer.wrap(rap, "eliminate_redundant_mem_ops", "rap.peephole")
    for attr, name in PIPELINE_CHECKS:
        tracer.wrap(pipeline, attr, f"validate.{name}")
    for name in TRANSFORM_VALIDATORS:
        tracer.wrap(validators, f"validate_{name}", f"validate.{name}")
    tracer.wrap(Machine, "run", "interp.run", after=_executed_cycles)
    tracer.wrap(decode, "decode_image", "interp.decode")
    tracer.wrap(
        pycompile, "compile_decoded", "interp.pycompile", after=_translation_counter()
    )
    tracer.wrap(server, "dumps_image", "interp.serialize")


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The in-process per-layer figures of one traced pass."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters

    def seconds(span: str) -> Tuple[float, str]:
        return (self_s.get(span, 0.0), "s")

    out: Dict[str, Tuple[float, str]] = {
        "frontend.parse_s": seconds("frontend.parse"),
        "frontend.sema_s": seconds("frontend.sema"),
        "ir.build_module_s": seconds("ir.build_module"),
        "compiler.fresh_module_s": seconds("compiler.fresh_module"),
    }
    for allocator in ALLOCATORS:
        out[f"regalloc.{allocator}_s"] = seconds(f"regalloc.{allocator}")
        out[f"regalloc.{allocator}.calls"] = (
            calls.get(f"regalloc.{allocator}", 0),
            "count",
        )
    out["regalloc.rounds"] = (counters.get("regalloc.rounds", 0), "count")
    out["regalloc.spills"] = (counters.get("regalloc.spills", 0), "count")
    out["rap.region_alloc_s"] = seconds("rap.region_alloc")
    out["rap.motion_s"] = seconds("rap.motion")
    out["rap.peephole_s"] = seconds("rap.peephole")
    out["rap.analysis_builds"] = (counters.get("rap.analysis_builds", 0), "count")
    for name in VALIDATORS:
        out[f"validate.{name}_s"] = seconds(f"validate.{name}")
    run_s = self_s.get("interp.run", 0.0)
    inclusive_run_s = (
        run_s + self_s.get("interp.decode", 0.0) + self_s.get("interp.pycompile", 0.0)
    )
    cycles = counters.get("interp.cycles", 0)
    out["interp.run_s"] = (run_s, "s")
    out["interp.decode_s"] = seconds("interp.decode")
    out["interp.pycompile_s"] = seconds("interp.pycompile")
    out["interp.translations"] = (counters.get("interp.translations", 0), "count")
    out["interp.cycles"] = (cycles, "count")
    out["interp.minstr_per_s"] = (
        cycles / inclusive_run_s / 1e6 if inclusive_run_s else 0.0,
        "Minstr/s",
    )
    out["interp.serialize_s"] = seconds("interp.serialize")
    return out
