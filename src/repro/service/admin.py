"""Ring membership from the operator's terminal: ``repro router-admin``.

A router's backend set is mutable at runtime, and this tool is the
mutation surface.  Two verbs map onto the router's admin ops, and a
third reads the ring:

``add HOST:PORT``
    Put a new (or restarted) daemon on the ring.  It starts taking its
    arcs immediately; read-repair warms it on first touch.
``remove HOST:PORT``
    Take a daemon off the ring and the roster at once.  Under R > 1
    the rest of each replica set still holds its artifacts, and
    read-repair copies them to the backends that inherit its arcs.
    Remove, restart, add is a rolling restart (docs/OPERATIONS.md has
    the runbook).
``generation``
    Print the current ring generation and per-backend ownership share —
    what an operator reads before a guarded mutation.

Every mutating verb accepts ``--expect-generation N``: the op is
refused with a typed ``ring-generation-skew`` error when the ring has
moved past ``N`` — two operators, one ring, and the second sees a
refusal instead of silently clobbering the first.

Exit status is 0 when the router answered ``ok``, 1 for a typed
refusal or unreachable router, 2 for a usage error.  The raw response
is printed as JSON so scripts can parse it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from . import defaults
from .client import ServiceClient, ServiceError


def _parse_address(spec: str) -> tuple:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be HOST:PORT, got {spec!r}")
    return host, int(port)


def build_admin_parser() -> argparse.ArgumentParser:
    """The ``repro router-admin`` argument parser (defaults
    single-sourced in :mod:`repro.service.defaults`)."""
    parser = argparse.ArgumentParser(
        prog="repro router-admin",
        description="mutate a live router's backend ring",
    )
    parser.add_argument(
        "--router",
        default=f"{defaults.HOST}:{defaults.ROUTER_PORT}",
        metavar="HOST:PORT",
        help="the router to administer "
             f"(default: {defaults.HOST}:{defaults.ROUTER_PORT})",
    )
    parser.add_argument(
        "--timeout", type=float, default=defaults.CLIENT_TIMEOUT_S,
        metavar="SECONDS",
        help="per-op round-trip timeout "
             f"(default: {defaults.CLIENT_TIMEOUT_S:g})",
    )
    parser.add_argument(
        "--expect-generation", type=int, default=None, metavar="N",
        help="refuse the op (ring-generation-skew) unless the ring is "
             "still at generation N",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    for verb, summary in (
        ("add", "put a backend on the ring"),
        ("remove", "take a backend off the ring"),
    ):
        sub = commands.add_parser(verb, help=summary)
        sub.add_argument("backend", metavar="HOST:PORT")
    commands.add_parser(
        "generation", help="print ring generation and ownership shares"
    )
    return parser


def _request_for(args: argparse.Namespace) -> Dict[str, Any]:
    request: Dict[str, Any] = {
        "op": f"backend-{args.command}",
        "backend": args.backend,
    }
    if args.expect_generation is not None:
        request["expect_generation"] = args.expect_generation
    return request


def _print_generation(stats: Dict[str, Any]) -> None:
    router = stats.get("router", {})
    print(f"ring generation {router.get('ring_generation')}")
    print(
        f"replication {router.get('replication')}  "
        f"vnodes {router.get('vnodes')}"
    )
    for snap in stats.get("backends", []):
        ring = snap.get("ring", {})
        state = "healthy" if snap.get("healthy") else "UNHEALTHY"
        print(
            f"  {snap['name']}: {state}, {ring.get('vnodes', 0)} vnodes, "
            f"{ring.get('keyspace_fraction', 0.0):.1%} of keyspace"
        )


def admin_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro router-admin``: one admin op, one exit code."""
    parser = build_admin_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        host, port = _parse_address(args.router)
        if args.command != "generation":
            _parse_address(args.backend)  # fail fast, before connecting
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        with ServiceClient(host, port, timeout=args.timeout) as client:
            if args.command == "generation":
                response = client.request({"op": "stats"})
                if response.get("ok"):
                    if not isinstance(response.get("router"), dict):
                        print(
                            f"error: {args.router} answers stats but is "
                            "not a router (a backend daemon?)",
                            file=sys.stderr,
                        )
                        return 1
                    _print_generation(response)
                    return 0
            else:
                response = client.request(_request_for(args))
    except (ServiceError, OSError) as err:
        print(f"error: router {args.router} unreachable: {err}", file=sys.stderr)
        return 1
    print(json.dumps(response, sort_keys=True))
    return 0 if response.get("ok") else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(admin_main())
