"""The closed-loop drill, driven against an in-process daemon; the
rolling-restart drill spawns its own backends and router."""

import io
import threading

import pytest

from repro.cli import main as cli_main
from repro.service.loadgen import (
    LoadgenReport,
    default_mix,
    run_loadgen,
    run_rolling_restart,
)
from repro.service.server import CompileServer, CompileService

TINY_MIX = [
    ("tiny-a", "void main() { print(1 + 2); }"),
    ("tiny-b", "void main() { int i; i = 6; print(i * 7); }"),
]


@pytest.fixture
def server():
    service = CompileService(workers=2)
    server = CompileServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.drain_and_shutdown(timeout=5.0)
    server.server_close()


def _address(server):
    return server.server_address[:2]


class TestMix:
    def test_default_mix_includes_suite_and_corpus(self):
        names = [name for name, _ in default_mix()]
        assert "sieve" in names and "hanoi" in names
        assert any(name.startswith("corpus:") for name in names)
        sources = [source for _, source in default_mix()]
        assert all(isinstance(source, str) and source for source in sources)

    def test_corpus_can_be_left_out(self):
        names = [name for name, _ in default_mix(corpus=False)]
        assert names == ["sieve", "hanoi"]


class TestClosedLoop:
    def test_warm_pass_hits_the_cache(self, server):
        host, port = _address(server)
        cold = run_loadgen(
            host, port, requests=len(TINY_MIX), workers=2, mix=TINY_MIX, k=5
        )
        assert cold.ok == len(TINY_MIX)
        assert cold.errors == 0 and cold.mismatches == 0
        assert cold.hits == 0

        warm = run_loadgen(
            host, port, requests=4 * len(TINY_MIX), workers=2, mix=TINY_MIX, k=5
        )
        assert warm.ok == 4 * len(TINY_MIX)
        assert warm.errors == 0 and warm.mismatches == 0
        # The acceptance bar: >= 90% hit rate on a repeated mix.
        assert warm.hit_rate >= 0.9

    def test_report_shape_and_rendering(self, server):
        host, port = _address(server)
        stream = io.StringIO()
        report = run_loadgen(
            host,
            port,
            requests=4,
            workers=2,
            mix=TINY_MIX,
            k=3,
            stream=stream,
        )
        payload = report.as_dict()
        for field in (
            "requests",
            "ok",
            "errors",
            "hits",
            "misses",
            "mismatches",
            "hit_rate",
            "unanswered",
            "wall_s",
            "error_kinds",
            "artifacts",
        ):
            assert field in payload, field
        text = stream.getvalue()
        assert "[loadgen]" in text
        assert "hit rate" in text

    def test_unreachable_server_reports_connect_errors(self):
        report = run_loadgen(
            "127.0.0.1", 1, requests=3, workers=2, mix=TINY_MIX
        )
        assert report.ok == 0
        assert report.errors >= 1
        assert "connect" in report.error_kinds

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            run_loadgen(mix=[])

    @pytest.mark.parametrize(
        "field, value",
        [("requests", 0), ("requests", -5), ("workers", 0)],
    )
    def test_vacuous_run_rejected(self, field, value):
        # Nothing would be sent, and the run would pass a drill.
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            run_loadgen("127.0.0.1", 1, mix=TINY_MIX, **{field: value})


class TestLoadgenCLI:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--requests", "0"], "--requests must be at least 1"),
            (["--requests", "-5"], "--requests must be at least 1"),
            (["--workers", "0"], "--workers must be at least 1"),
            # The failure drill runs beside loadgen, not inside it.
            (["--chaos"], "unrecognized arguments: --chaos"),
            (["--chaos-crashes", "3"], "unrecognized arguments: --chaos-"),
            (["--chaos-hangs", "1", "--chaos-malformed", "2"],
             "unrecognized arguments: --chaos-"),
            (["--rolling-restart", "--backends", "1"], "--backends must be"),
            (["--rolling-restart", "--replication", "0"], "--replication must"),
        ],
    )
    def test_bad_counts_are_usage_errors(self, argv, message, capsys):
        # Port 1 refuses connections, so a run that is not refused
        # up front fails fast instead of waiting on a daemon.
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["loadgen", "--port", "1", *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestReportMath:
    def test_rates_with_no_traffic(self):
        report = LoadgenReport()
        assert report.hit_rate == 0.0


class TestRollingRestart:
    def test_two_backend_drill_passes_under_load(self):
        stream = io.StringIO()
        summary = run_rolling_restart(backends=2, stream=stream)
        assert summary["ok"], stream.getvalue()
        assert len(summary["restarts"]) == 2
        for record in summary["restarts"]:
            assert record["remove_ok"] and record["add_ok"], record
        background = summary["background"]
        assert background["ok"] >= 1, background
        assert background["errors"] == 0 and background["unanswered"] == 0
        assert background["artifacts_drifted"] == 0
        assert summary["warm"]["ok"] == summary["warm"]["requests"]
        assert summary["final"]["hit_rate"] >= 0.9
        assert "PASS" in stream.getvalue()

    def test_needs_two_backends(self):
        with pytest.raises(ValueError, match="at least 2 backends"):
            run_rolling_restart(backends=1)
