"""Docs stay honest: every intra-repo link resolves, and every ``--flag``
a doc mentions exists in some ``--help``.

This is the doc-drift tripwire behind the CI ``docs-check`` step.  The
known-flag universe is built from the *real* parsers — ``repro.cli``'s
argparse tree (recursively, through its subcommands), the five service
parser factories (``serve``/``router``/``request``/``loadgen``/
``router-admin`` bypass argparse dispatch in the CLI), the failure
drill script's parser (``tests/service/chaos_drill.py``), and the
``--help`` text of the ``repro.bench`` entry points and of
``perfbench/run.py`` — so renaming or deleting a flag without sweeping
the docs fails here, not in a user's terminal.
"""

import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

from repro import cli
from perfbench import run as perfbench_run
from repro.bench import ablations, sweep, table1
from repro.service.admin import build_admin_parser
from repro.service.client import build_request_parser
from repro.service.loadgen import build_loadgen_parser
from repro.service.router import build_router_parser
from repro.service.server import build_serve_parser
from tests.service.chaos_drill import build_drill_parser

REPO = Path(__file__).resolve().parents[2]

#: the documentation surface under check: the README plus everything in
#: docs/, and the two top-level record documents the README links to.
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
    + list((REPO / "docs").glob("*.md"))
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")


def _parser_flags(parser):
    """All ``--long`` option strings of *parser*, subcommands included."""
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags.update(_parser_flags(sub))
    return flags


def _help_flags(main):
    """Flags as printed by an entry point's ``--help``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        with pytest.raises(SystemExit):
            main(["--help"])
    return set(_FLAG.findall(buffer.getvalue()))


def known_flags():
    flags = set()
    for factory in (
        cli.build_parser,
        build_serve_parser,
        build_router_parser,
        build_request_parser,
        build_loadgen_parser,
        build_admin_parser,
        build_drill_parser,
    ):
        flags |= _parser_flags(factory())
    for entry in (table1.main, sweep.main, ablations.main, perfbench_run.main):
        flags |= _help_flags(entry)
    return flags


@pytest.fixture(scope="module")
def flag_universe():
    return known_flags()


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(d.relative_to(REPO)) for d in DOC_FILES]
)
class TestDoc:
    def test_intra_repo_links_resolve(self, doc):
        broken = []
        for target in _LINK.findall(doc.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure fragment, same-page anchor
                continue
            if not (doc.parent / path).exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"

    def test_mentioned_flags_exist(self, doc, flag_universe):
        mentioned = set(_FLAG.findall(doc.read_text(encoding="utf-8")))
        unknown = mentioned - flag_universe
        assert not unknown, (
            f"{doc.name} mentions flags absent from every --help: "
            f"{sorted(unknown)}"
        )


class TestUniverse:
    def test_universe_is_plausible(self, flag_universe):
        # a canary per parser source, so a silent enumeration failure
        # (refactored factory, renamed entry point) is caught here
        # rather than by the doc tests vacuously passing.
        for canary in (
            "--profile",        # cli run subparser
            "--persist-dir",    # serve factory
            "--backend",        # router factory
            "--retries",        # request factory
            "--rolling-restart",  # loadgen factory
            "--expect-generation",  # router-admin factory
            "--jobs",           # bench --help
            "--trace",          # perfbench --help
        ):
            assert canary in flag_universe, canary

    def test_doc_surface_is_complete(self):
        names = {doc.name for doc in DOC_FILES}
        assert {
            "README.md",
            "ARCHITECTURE.md",
            "SERVICE.md",
            "OPERATIONS.md",
            "BENCHMARKING.md",
            "ROBUSTNESS.md",
        } <= names
