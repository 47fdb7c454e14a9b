"""Single-sourced defaults: the parsers, implementation signatures, and
``--help`` text must all agree with :mod:`repro.service.defaults`.

This is the enforcement arm of the defaults module — any hand-written
default that drifts from the constants module fails here instead of
drifting silently in the docs.
"""

import inspect

from repro.service import defaults
from repro.service.client import (
    ServiceClient,
    build_request_parser,
    connect_with_retry,
)
from repro.service.loadgen import build_loadgen_parser, run_loadgen
from repro.service.router import RouterService, build_router_parser
from repro.service.server import (
    _DEFAULT_WAIT_S,
    _GRACE_S,
    CompileService,
    build_serve_parser,
)
from repro.service.workers import Supervision


def _signature_defaults(callable_):
    return {
        name: parameter.default
        for name, parameter in inspect.signature(callable_).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


class TestServeParser:
    def test_flag_defaults(self):
        parser = build_serve_parser()
        assert parser.get_default("host") == defaults.HOST
        assert parser.get_default("port") == defaults.PORT
        assert parser.get_default("queue_limit") == defaults.QUEUE_LIMIT
        assert parser.get_default("worker_mode") == defaults.WORKER_MODE
        # None-defaulted flags resolve at runtime; the *resolved* values
        # live in Supervision / ArtifactCache, audited below.
        assert parser.get_default("job_timeout") is None
        assert parser.get_default("cache_bytes") is None

    def test_help_text_numbers_match(self):
        text = build_serve_parser().format_help()
        assert f"default: {defaults.JOB_TIMEOUT_S:.0f}" in text
        assert f"default: {defaults.CACHE_BYTES // (1024 * 1024)} MiB" in text
        assert defaults.WORKER_MODE in text


class TestSupervision:
    def test_dataclass_defaults(self):
        supervision = Supervision()
        assert supervision.job_timeout_s == defaults.JOB_TIMEOUT_S
        assert supervision.backoff_base_s == defaults.BACKOFF_BASE_S
        assert supervision.backoff_cap_s == defaults.BACKOFF_CAP_S
        assert supervision.poison_threshold == defaults.POISON_THRESHOLD


class TestServerPolicy:
    def test_handler_waits(self):
        assert _GRACE_S == defaults.GRACE_S
        assert _DEFAULT_WAIT_S == defaults.WAIT_S

    def test_service_signature(self):
        sig = _signature_defaults(CompileService.__init__)
        assert sig["workers"] is None  # resolved to one per usable core
        assert CompileService()._workers == defaults.usable_cpus()
        assert sig["queue_limit"] == defaults.QUEUE_LIMIT


class TestClient:
    def test_client_signature(self):
        sig = _signature_defaults(ServiceClient.__init__)
        assert sig["host"] == defaults.HOST
        assert sig["port"] == defaults.PORT
        assert sig["timeout"] == defaults.CLIENT_TIMEOUT_S
        assert sig["retries"] == defaults.CLIENT_RETRIES
        assert sig["backoff"] == defaults.CLIENT_BACKOFF_S
        retry_sig = _signature_defaults(connect_with_retry)
        assert retry_sig["timeout"] == defaults.CLIENT_TIMEOUT_S
        assert retry_sig["retries"] == defaults.CLIENT_RETRIES

    def test_request_parser(self):
        parser = build_request_parser()
        assert parser.get_default("host") == defaults.HOST
        assert parser.get_default("port") == defaults.PORT
        assert parser.get_default("allocator") == defaults.ALLOCATOR
        assert parser.get_default("k") == defaults.K
        assert parser.get_default("retries") == defaults.CLIENT_RETRIES
        assert parser.get_default("backoff") == defaults.CLIENT_BACKOFF_S


class TestRouter:
    def test_router_parser(self):
        parser = build_router_parser()
        assert parser.get_default("host") == defaults.HOST
        assert parser.get_default("port") == defaults.ROUTER_PORT
        assert parser.get_default("probe_interval") == (
            defaults.ROUTER_PROBE_INTERVAL_S
        )
        assert parser.get_default("probe_failures") == (
            defaults.ROUTER_PROBE_FAILURES
        )
        assert parser.get_default("timeout") == defaults.CLIENT_TIMEOUT_S

    def test_router_service_signature(self):
        sig = _signature_defaults(RouterService.__init__)
        assert sig["probe_interval_s"] == defaults.ROUTER_PROBE_INTERVAL_S
        assert sig["probe_failures"] == defaults.ROUTER_PROBE_FAILURES
        assert sig["timeout"] == defaults.CLIENT_TIMEOUT_S

    def test_router_port_does_not_collide_with_backend_port(self):
        assert defaults.ROUTER_PORT != defaults.PORT


class TestLoadgen:
    def test_loadgen_parser(self):
        parser = build_loadgen_parser()
        assert parser.get_default("host") == defaults.HOST
        assert parser.get_default("port") == defaults.PORT
        assert parser.get_default("allocator") == defaults.ALLOCATOR
        assert parser.get_default("k") == defaults.K

    def test_run_signatures(self):
        sig = _signature_defaults(run_loadgen)
        assert sig["host"] == defaults.HOST
        assert sig["port"] == defaults.PORT
        assert sig["allocator"] == defaults.ALLOCATOR
        assert sig["k"] == defaults.K
