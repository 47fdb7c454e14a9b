import pytest

from perfbench.common import (
    Outcome,
    beyond,
    latency_summary,
    nearest_rank,
    percentile_allowed,
    tail_percentile,
)
from perfbench.workloads.shared import end_to_end


def test_nearest_rank_picks_an_observed_sample():
    values = list(range(1, 11))
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 91) == 10
    assert nearest_rank(values, 100) == 10
    assert nearest_rank(values, 0) == 1
    assert nearest_rank([7.5], 99) == 7.5


def test_nearest_rank_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert beyond(100, 90) == 10
    assert percentile_allowed(100, 90)
    assert not percentile_allowed(99, 90)
    assert percentile_allowed(1000, 99)
    assert not percentile_allowed(999, 99)


def test_tail_percentile_is_the_highest_supported():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(500) == 98.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(5) is None


def test_latency_summary_falls_back_when_p99_is_unsupported():
    report = latency_summary("cold", [float(i) for i in range(1, 201)], 99.0)
    assert report.values["cold_p50_ms"] == (100.0, "ms")
    assert "cold_p99_ms" not in report.values
    assert report.values["cold_p95_ms"] == (190.0, "ms")
    assert any("cold_p99_ms" in note for note in report.notes)


def test_end_to_end_reports_the_median_pass():
    ops = 100  # the fewest operations that support a p90
    passes = [
        ([10.0] * ops, 1.0),
        ([30.0] * 90 + [50.0] * 10, 3.2),
        ([15.0] * ops, 1.5),
    ]
    outcome = Outcome(attempted=ops * 3)
    end_to_end(outcome, passes, setup_s=1.5, peak_rss_mb=64.0)
    figures = outcome.metrics.values
    assert set(figures) == {"peak_rss_mb", "setup_s"}
    assert outcome.report.values["p50_ms"] == (15.0, "ms")
    assert outcome.report.values["p90_ms"] == (15.0, "ms")
    assert outcome.report.values["ops_per_s"][0] == pytest.approx(100.0 / 1.5)
    assert figures["setup_s"] == (1.5, "s")
    assert figures["peak_rss_mb"] == (64.0, "MB")
    assert outcome.report.values["failed_frac"] == (0.0, "frac")


def test_end_to_end_refuses_a_p90_without_ten_samples_beyond_it():
    with pytest.raises(RuntimeError):
        end_to_end(Outcome(), [([1.0] * 99, 1.0)], setup_s=1.0, peak_rss_mb=1.0)
