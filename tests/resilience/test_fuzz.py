"""The differential fuzz driver."""

import io
import os

from repro.resilience.fuzz import run_fuzz
from repro.resilience.faults import FaultSpec


class TestRunFuzz:
    def test_clean_sweep(self, tmp_path):
        stream = io.StringIO()
        report = run_fuzz(
            seeds=3, size="small", k_values=(3,), allocators=("gra",),
            out_dir=str(tmp_path), stream=stream, use_corpus=False,
        )
        assert report.ok
        assert report.scenarios == 3
        assert "3 seeds" in stream.getvalue()
        assert os.listdir(str(tmp_path)) == []  # no bundles written

    def test_injected_failures_are_bundled(self, tmp_path, monkeypatch):
        # The check that would catch the corrupt slots, patched out.
        monkeypatch.setattr(
            "repro.resilience.pipeline.check_spill_discipline",
            lambda *args, **kwargs: None,
        )
        stream = io.StringIO()
        report = run_fuzz(
            seeds=2, size="small", k_values=(3,), allocators=("gra",),
            out_dir=str(tmp_path), stream=stream, use_corpus=False,
            inject=[FaultSpec("gra.spill.corrupt-slot", times=None)],
            minimize=False,
        )
        assert not report.ok
        assert report.failures
        for failure in report.failures:
            assert failure.bundle_path is not None
            assert os.path.exists(
                os.path.join(failure.bundle_path, "bundle.json")
            )
        assert "FAIL seed=" in stream.getvalue()
