"""The two-tier interpreter microbenchmark harness."""

import io
import json

from repro.bench.micro import main, run_micro


class TestRunMicro:
    def test_report_shape_and_equivalence(self):
        stream = io.StringIO()
        report = run_micro(["queens"], repeat=1, stream=stream)
        assert [row["program"] for row in report["programs"]] == ["queens"]
        row = report["programs"][0]
        assert row["instructions"] > 0
        assert set(row["seconds"]) == {"slow", "compiled"}
        assert set(report["minstr_per_s"]) == {"slow", "compiled"}
        assert set(report["speedup"]) == {"compiled_vs_slow"}
        for value in report["speedup"].values():
            assert value > 0
        rendered = stream.getvalue()
        assert "queens" in rendered
        assert "comp Mi/s" in rendered

    def test_json_flag_writes_report(self, tmp_path, capsys):
        out = tmp_path / "micro.json"
        assert main(["--programs", "queens", "--json", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["programs"][0]["program"] == "queens"
        assert json.dumps(report)  # round-trips
