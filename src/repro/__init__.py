"""repro — a full reproduction of Norris & Pollock, "Register Allocation
over the Program Dependence Graph" (PLDI 1994).

Public API tour
---------------

Compile Mini-C, run the reference, allocate with either allocator::

    from repro import compile_source, run_program, allocate_gra, allocate_rap

    prog = compile_source(source_text)
    reference = run_program(prog.reference_image())

    module = prog.fresh_module()
    results = {name: allocate_rap(f, k=5) for name, f in module.functions.items()}

Allocate, validate and run a whole program through the one driver the
harness, service, CLI, triage and corpus share (the fallback ladder over
it is :func:`repro.resilience.fallback.walk_ladder`)::

    from repro.resilience.pipeline import PassPipeline
    image, results = PassPipeline().allocate_program(prog, "rap", 5)
    assert run_program(image).output == reference.output

Reproduce the paper's Table 1::

    from repro.bench import build_table1
    table = build_table1()
    print(table.overall_average())     # paper: 2.7

Subpackages: ``frontend`` (Mini-C), ``ir`` (iloc + PDG builder), ``pdg``
(region hierarchy, linearization, liveness, data deps), ``cfg`` (basic
blocks / dataflow), ``regalloc`` (GRA baseline, RAP, coalescing),
``interp`` (the counting interpreter), ``bench`` (the Table-1 suite).
"""

import importlib

__version__ = "1.0.0"


def _lazy_exports(package, exports):
    """A PEP 562 module ``__getattr__`` for ``exports`` (submodule ->
    names): each name's submodule is imported on first use, so a process
    that never touches the compiler never loads it."""
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(owner[name], package), name)

    return __getattr__


_EXPORTS = {
    ".compiler": ("compile_source", "CompiledProgram", "param_slots"),
    ".interp.machine": ("run_program", "Machine", "ProgramImage", "FunctionImage"),
    ".regalloc": ("allocate_gra", "allocate_rap"),
}
__getattr__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]
