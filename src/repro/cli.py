"""Command-line driver.

Usage (``python -m repro ...``):

.. code-block:: text

    python -m repro run prog.mc                    # reference execution
    python -m repro run prog.mc --allocator rap -k 5
    python -m repro run prog.mc --allocator rap -k 5 --profile
    python -m repro run prog.mc --allocator gra -k 3 --inject gra.spill.corrupt-slot
    python -m repro compare prog.mc -k 3 5 7 9     # GRA vs RAP sweep
    python -m repro emit prog.mc --what iloc       # unallocated listing
    python -m repro emit prog.mc --what pdg        # region tree
    python -m repro emit prog.mc --what dot        # Graphviz of the PDG
    python -m repro emit prog.mc --what alloc --allocator rap -k 4
    python -m repro run prog.mc --allocator rap -k 5 --schedule
    python -m repro table1                         # the paper's table
    python -m repro table1 --jobs 4                # same table, 4 processes
    python -m repro table1 --inject rap.region.raise   # ladder under fire
    python -m repro fuzz --seeds 25                # corpus + differential fuzzing
    python -m repro fuzz --update-corpus           # grow tests/corpus/
    python -m repro replay artifacts/<bundle>      # re-run a triage bundle
    python -m repro faults                         # list fault probe points
    python -m repro serve --port 9363              # compile-as-a-service daemon
    python -m repro serve --workers 2 --job-timeout 30  # 2 supervised children
    python -m repro request prog.mc --deadline-ms 200 --retries 3
    python -m repro router --backend 127.0.0.1:9363 --backend 127.0.0.1:9364
    python -m repro router-admin drain 127.0.0.1:9363   # rolling-restart step
    python -m repro loadgen --requests 40 --port 9363  # hit-rate/determinism drill
    python -m repro loadgen --chaos --retries 3    # chaos harness (serve --chaos)
    python -m repro loadgen --rolling-restart --backends 3  # restart under load

The driver is a thin layer over the library; everything it prints can be
obtained programmatically (see README).  Failures surface as structured
diagnostics on stderr — the pipeline stage, function, allocator, and k
that failed — with exit status 1, never a raw traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from .resilience.errors import StageError
from .resilience.telemetry import MetricsCollector, render_profile

# The compiler loads inside the commands that run it, so ``serve`` and
# ``router`` (dispatched before any of them) start without it.
if TYPE_CHECKING:  # pragma: no cover
    from .compiler import CompiledProgram
    from .resilience.pipeline import PassPipeline

ALLOCATOR_CHOICES = ("gra", "rap", "ssaspill", "linearscan", "spillall")


def _load(
    path: str,
    granularity: str = "statement",
    pipeline: Optional[PassPipeline] = None,
) -> CompiledProgram:
    from .compiler import compile_source

    with open(path) as handle:
        source = handle.read()
    return compile_source(
        source, filename=path, granularity=granularity, pipeline=pipeline
    )


def _print_stats(label: str, stats) -> None:
    total = stats.total
    print(
        f"{label}: cycles={total.cycles} loads={total.loads} "
        f"stores={total.stores} copies={total.copies}"
    )


def cmd_run(args) -> int:
    import time

    from .interp.machine import Machine, run_program
    from .resilience import faults
    from .resilience.pipeline import PassPipeline, PipelineConfig

    specs = [faults.FaultSpec(point) for point in args.inject or []]
    collector = MetricsCollector() if args.profile else None
    pipeline = None
    if collector is not None or args.schedule:
        # Same error policy as the default path (front-end errors surface
        # unwrapped, machine faults stay machine faults) — the collector
        # and the optional schedule stage are the only differences.
        pipeline = PassPipeline(
            PipelineConfig(
                granularity=args.granularity,
                wrap_frontend_errors=False,
                schedule=args.schedule,
            ),
            metrics=collector,
            filename=args.file,
        )
    # Only arm a plan when probes were requested: an armed plan (even an
    # empty one) demotes the interpreter from the compiled tier to the
    # slow loop.
    from contextlib import nullcontext

    with faults.injected(*specs) if specs else nullcontext():
        prog = _load(args.file, args.granularity, pipeline=pipeline)
        if args.allocator == "none":
            # The schedule flag must reach the reference path too: the
            # image cache is keyed on it, so a scheduled run can never be
            # served the unscheduled (differently ordered) image.
            image = prog.reference_image(schedule=args.schedule)
            label = "reference (scheduled)" if args.schedule else "reference"
        else:
            image, _ = (pipeline or PassPipeline()).allocate_program(
                prog, args.allocator, args.k, coalesce=args.coalesce
            )
            label = f"{args.allocator} k={args.k}"
        started = time.perf_counter()
        if collector is not None:
            # Drive the machine directly so pre-decode time (a subset of
            # the execute wall time) lands in its own profile row.
            machine = Machine(image, max_cycles=args.max_cycles)
            machine.run(args.entry)
            stats = machine.stats
            collector.record_duration("execute", time.perf_counter() - started)
            if machine.decode_seconds:
                collector.record_duration("decode", machine.decode_seconds)
            if machine.pycompile_seconds:
                collector.record_duration("pycompile", machine.pycompile_seconds)
            collector.record_execute_tier(
                stats.interp_tier or machine.interp_tier()
            )
        else:
            stats = run_program(
                image, entry=args.entry, max_cycles=args.max_cycles
            )
    for value in stats.output:
        print(value)
    if not args.quiet:
        _print_stats(label, stats)
    if collector is not None:
        render_profile(collector, sys.stdout, title=f"Per-stage telemetry ({label}):")
    return 0


def cmd_compare(args) -> int:
    from .interp.machine import run_program
    from .resilience.pipeline import PassPipeline
    from .testing.compare import first_divergence, outputs_equal

    prog = _load(args.file, args.granularity)
    pipeline = PassPipeline()
    reference = run_program(
        prog.reference_image(), entry=args.entry, max_cycles=args.max_cycles
    )
    print(f"reference: cycles={reference.total.cycles} output={reference.output}")
    header = f"{'k':>3} | {'GRA':>10} | {'RAP':>10} | {'RAP vs GRA':>10}"
    print(header)
    print("-" * len(header))
    for k in args.k:
        rows = {}
        for name in ("gra", "rap"):
            image, _ = pipeline.allocate_program(
                prog, name, k, coalesce=args.coalesce
            )
            stats = run_program(
                image, entry=args.entry, max_cycles=args.max_cycles
            )
            if not outputs_equal(stats.output, reference.output):
                index = first_divergence(stats.output, reference.output)
                print(
                    f"!! {name} k={k}: output diverges from reference at "
                    f"index {index}",
                    file=sys.stderr,
                )
                return 1
            rows[name] = stats.total.cycles
        gain = 100.0 * (rows["gra"] - rows["rap"]) / rows["gra"]
        print(f"{k:>3} | {rows['gra']:>10} | {rows['rap']:>10} | {gain:>+9.1f}%")
    return 0


def cmd_emit(args) -> int:
    from .ir.printer import format_code, format_function
    from .pdg.dot import to_dot
    from .pdg.linearize import linearize

    prog = _load(args.file, args.granularity)
    module = prog.module
    if args.what == "src":
        from .frontend.parser import parse
        from .frontend.pretty import pretty_program

        with open(args.file) as handle:
            print(pretty_program(parse(handle.read())), end="")
    elif args.what == "pdg":
        for func in module.functions.values():
            print(format_function(func))
            print()
    elif args.what == "dot":
        for name, func in module.functions.items():
            if args.function and name != args.function:
                continue
            print(to_dot(func, include_data_deps=args.data_deps))
    elif args.what == "iloc":
        for name, func in module.functions.items():
            print(f"; function {name}")
            print(format_code(linearize(func).instrs))
            print()
    elif args.what == "alloc":
        from .resilience.pipeline import PassPipeline

        image, _ = PassPipeline().allocate_program(
            prog, args.allocator, args.k, coalesce=args.coalesce
        )
        for name, func_image in image.functions.items():
            print(f"; function {name}  ({args.allocator}, k={args.k})")
            print(format_code(func_image.code))
            print()
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.what)
    return 0


def cmd_table1(args) -> int:
    from .bench.table1 import main as table1_main

    forwarded: List[str] = []
    if args.k:
        forwarded += ["--k", *map(str, args.k)]
    if args.programs:
        forwarded += ["--programs", *args.programs]
    if args.jobs is not None:
        forwarded += ["--jobs", str(args.jobs)]
    if args.schedule:
        forwarded += ["--schedule"]
    for point in args.inject or []:
        forwarded += ["--inject", point]
    return table1_main(forwarded)


def cmd_fuzz(args) -> int:
    from .resilience.fuzz import run_fuzz

    report = run_fuzz(
        seeds=args.seeds,
        start=args.start,
        size=args.size,
        k_values=tuple(args.k),
        allocators=tuple(args.allocators),
        out_dir=args.out,
        max_cycles=args.max_cycles,
        minimize=not args.no_minimize,
        corpus_dir=args.corpus,
        use_corpus=not args.no_corpus,
        update_corpus=args.update_corpus,
    )
    return 0 if report.ok else 1


def _service_command(name: str, rest: Sequence[str]) -> int:
    """Dispatch ``serve``/``router``/``request``/``router-admin``/
    ``loadgen`` to the owning module.

    These parsers live next to their implementations
    (:mod:`repro.service`); the driver hands the remaining argv through
    untouched.  Dispatch happens *before* the main argparse pass because
    ``nargs=argparse.REMAINDER`` cannot capture a leading optional like
    ``--port`` (bpo-17050) — the subcommands here start with optionals.
    """
    if name == "serve":
        from .service.server import serve

        return serve(rest)
    if name == "router":
        from .service.router import router_main

        return router_main(rest)
    if name == "request":
        from .service.client import request_main

        return request_main(rest)
    if name == "router-admin":
        from .service.admin import admin_main

        return admin_main(rest)
    from .service.loadgen import loadgen_main

    return loadgen_main(rest)


def cmd_replay(args) -> int:
    from .resilience.triage import replay_bundle

    result = replay_bundle(args.bundle)
    print(result.describe())
    return 0 if result.reproduced else 1


def cmd_faults(args) -> int:
    from .resilience import faults

    width = max(len(point) for point in faults.PROBE_POINTS)
    for point in sorted(faults.PROBE_POINTS):
        print(f"{point.ljust(width)}  {faults.PROBE_POINTS[point]}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="Mini-C source file")
    parser.add_argument(
        "--granularity",
        choices=("statement", "merged"),
        default="statement",
        help="region granularity (default: one region per statement)",
    )
    parser.add_argument("--entry", default="main")
    parser.add_argument("--max-cycles", type=int, default=50_000_000)
    parser.add_argument(
        "--coalesce",
        action="store_true",
        help="run conservative coalescing before allocation",
    )


def build_parser() -> argparse.ArgumentParser:
    from .bench.suite import program_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAP/GRA register allocation over the PDG (PLDI 1994 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile, allocate, and execute")
    _add_common(run)
    run.add_argument(
        "--allocator", choices=("none",) + ALLOCATOR_CHOICES, default="none"
    )
    run.add_argument("-k", type=int, default=8, help="physical register count")
    run.add_argument("--quiet", action="store_true")
    run.add_argument(
        "--inject",
        action="append",
        metavar="POINT",
        help="arm a fault-injection probe (repeatable; see `repro faults`)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage wall time, allocation rounds, spill counts,"
        " and peephole hits after the run",
    )
    run.add_argument(
        "--schedule",
        action="store_true",
        help="list-schedule the allocated code as its own pipeline stage"
        " (validated against an independently rebuilt dependence DAG)",
    )
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="GRA vs RAP cycle comparison")
    _add_common(compare)
    compare.add_argument("-k", type=int, nargs="+", default=[3, 5, 7, 9])
    compare.set_defaults(func=cmd_compare)

    emit = sub.add_parser("emit", help="print compiler artifacts")
    _add_common(emit)
    emit.add_argument(
        "--what",
        choices=("src", "pdg", "dot", "iloc", "alloc"),
        default="iloc",
    )
    emit.add_argument("--allocator", choices=ALLOCATOR_CHOICES, default="rap")
    emit.add_argument("-k", type=int, default=8)
    emit.add_argument("--function", help="restrict DOT output to one function")
    emit.add_argument("--data-deps", action="store_true")
    emit.set_defaults(func=cmd_emit)

    table1 = sub.add_parser("table1", help="reproduce the paper's Table 1")
    table1.add_argument("--k", type=int, nargs="*")
    table1.add_argument(
        "--programs", nargs="*", choices=program_names(), metavar="NAME"
    )
    table1.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="measure sweep cells in N worker processes (default: serial)",
    )
    table1.add_argument(
        "--inject",
        action="append",
        metavar="POINT",
        help="arm a fault-injection probe for the whole sweep (repeatable);"
        " the fallback ladder keeps the table complete",
    )
    table1.add_argument(
        "--schedule",
        action="store_true",
        help="list-schedule the RAP column and print the schedule-on/off"
        " static-cycle delta footer",
    )
    table1.set_defaults(func=cmd_table1)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing with crash triage"
    )
    fuzz.add_argument("--seeds", type=int, default=25)
    fuzz.add_argument("--start", type=int, default=0)
    fuzz.add_argument("--size", choices=("small", "medium", "large"), default="small")
    fuzz.add_argument("--k", type=int, nargs="+", default=[3, 5])
    fuzz.add_argument(
        "--allocators",
        nargs="+",
        choices=ALLOCATOR_CHOICES,
        default=["gra", "rap", "ssaspill"],
    )
    fuzz.add_argument("--out", default="artifacts")
    fuzz.add_argument("--max-cycles", type=int, default=3_000_000)
    fuzz.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip delta minimization of failing programs",
    )
    fuzz.add_argument(
        "--corpus",
        default="tests/corpus",
        metavar="DIR",
        help="corpus directory replayed ahead of the random seed range"
        " (default: tests/corpus)",
    )
    fuzz.add_argument(
        "--no-corpus",
        action="store_true",
        help="skip the corpus replay phase",
    )
    fuzz.add_argument(
        "--update-corpus",
        action="store_true",
        help="persist any seed that covers a feature the corpus lacks",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    # Help-listing stubs: the service commands are dispatched before the
    # argparse pass (see _service_command) with their own full parsers.
    for name, text in (
        ("serve", "run the compile-as-a-service daemon"),
        ("router", "consistent-hash front end over N serve daemons"),
        ("request", "send one compile request to a daemon"),
        ("router-admin", "mutate a live router's backend ring"),
        ("loadgen", "closed-loop load generator for the daemon"),
    ):
        sub.add_parser(name, help=text, add_help=False)

    replay = sub.add_parser("replay", help="re-run a triage bundle")
    replay.add_argument("bundle", help="bundle directory (see artifacts/)")
    replay.set_defaults(func=cmd_replay)

    flt = sub.add_parser("faults", help="list fault-injection probe points")
    flt.set_defaults(func=cmd_faults)
    return parser


def _compiler_command(argv: Sequence[str]) -> int:
    """Every command but the service ones, with their failure rendering."""
    from .frontend.errors import FrontendError
    from .interp.memory import MachineFault

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FrontendError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MachineFault as err:
        print(f"machine fault: {err}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in (
            "serve", "router", "request", "router-admin", "loadgen"
        ):
            return _service_command(argv[0], argv[1:])
        return _compiler_command(argv)
    except BrokenPipeError:  # e.g. piped into `head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except StageError as err:
        print(err.render(), file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        # bad user input: unknown probe point, missing source file,
        # a replay directory without a bundle.json, ...
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
