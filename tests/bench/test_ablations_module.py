"""Smoke tests for the ablation report module."""

import io

from repro.bench.ablations import ABLATIONS, report


def test_report_renders_all_sections():
    stream = io.StringIO()
    report(["hanoi"], k=3, stream=stream)
    text = stream.getvalue()
    assert "== hanoi ==" in text
    labels = [
        line.split("cycles=")[0].strip()
        for line in text.splitlines()
        if "cycles=" in line
    ]
    assert labels == [ablation.label for ablation in ABLATIONS]


def test_report_numbers_are_sane():
    stream = io.StringIO()
    report(["hanoi"], k=5, stream=stream)
    lines = [l for l in stream.getvalue().splitlines() if "cycles=" in l]
    cycles = [int(l.split("cycles=")[1].split()[0]) for l in lines]
    assert all(c > 0 for c in cycles)
    # All configurations compute the same function; cycle counts stay in
    # the same ballpark (within 3x of each other).
    assert max(cycles) < 3 * min(cycles)
