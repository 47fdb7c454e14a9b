"""The closed-loop load generator, driven against an in-process daemon."""

import io
import threading

import pytest

from repro.service.defaults import usable_cpus
from repro.service.loadgen import (
    LoadgenReport,
    default_mix,
    percentile,
    run_loadgen,
    run_saturation,
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


class TestPercentile:
    def test_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 99.0) == 99.0
        assert percentile([], 50.0) == 0.0
        assert percentile([7.0], 99.0) == 7.0


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
    def test_warm_pass_hits_and_speeds_up(self, server):
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
        # The acceptance bar: >= 90% hit rate on a repeated mix and
        # >= 2x the cold throughput (in practice the margin is huge —
        # a warm answer runs zero compiler stages).
        assert warm.hit_rate >= 0.9
        assert warm.throughput_rps >= 2 * cold.throughput_rps

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
            "wall_s",
            "throughput_rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
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


class TestSaturation:
    def test_sweep_shape_and_knee(self, server):
        host, port = _address(server)
        stream = io.StringIO()
        summary = run_saturation(
            host=host,
            port=port,
            steps=(1, 2),
            requests_per_step=4,
            mix=TINY_MIX,
            stream=stream,
        )
        assert summary["target"] == f"{host}:{port}"
        assert summary["backends"] == 1  # plain daemon, not a router
        assert summary["cpus"] == usable_cpus()
        assert [step["concurrency"] for step in summary["steps"]] == [1, 2]
        for step in summary["steps"]:
            assert step["ok"] == 4
            assert step["errors"] == 0 and step["unanswered"] == 0
            assert step["throughput_rps"] > 0
            assert step["hit_rate"] == 1.0  # the warmup pass warmed it
            for field in ("p50_ms", "p95_ms", "p99_ms"):
                assert field in step
        assert summary["knee_concurrency"] in (1, 2)
        assert summary["max_throughput_rps"] == max(
            step["throughput_rps"] for step in summary["steps"]
        )
        text = stream.getvalue()
        assert "[saturate] warmup" in text and "knee at c=" in text

    def test_needs_at_least_one_step(self):
        with pytest.raises(ValueError):
            run_saturation(steps=())


class TestReportMath:
    def test_rates_with_no_traffic(self):
        report = LoadgenReport()
        assert report.hit_rate == 0.0
        assert report.throughput_rps == 0.0
        assert report.percentiles() == {
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
        }
