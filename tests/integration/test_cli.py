"""Tests for the command-line driver."""

import pytest

from repro.bench import ablations, sweep, table1
from repro.cli import main

DEMO = """
int f(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
}
void main() { print(f(10)); }
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.mc"
    path.write_text(DEMO)
    return str(path)


class TestRun:
    def test_reference_run(self, demo_file, capsys):
        assert main(["run", demo_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "45"
        assert "reference:" in out

    def test_allocated_run(self, demo_file, capsys):
        assert main(["run", demo_file, "--allocator", "rap", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "45"
        assert "rap k=4" in out

    def test_gra_run_quiet(self, demo_file, capsys):
        assert main(
            ["run", demo_file, "--allocator", "gra", "-k", "3", "--quiet"]
        ) == 0
        assert capsys.readouterr().out.strip() == "45"

    def test_coalesce_flag(self, demo_file, capsys):
        assert main(
            ["run", demo_file, "--allocator", "gra", "-k", "5", "--coalesce"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[0] == "45"

    def test_merged_granularity(self, demo_file, capsys):
        assert main(
            ["run", demo_file, "--allocator", "rap", "-k", "4",
             "--granularity", "merged"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[0] == "45"

    def test_profile_prints_stage_table(self, demo_file, capsys):
        assert main(
            ["run", demo_file, "--allocator", "rap", "-k", "4", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "45"
        assert "Per-stage telemetry" in out
        for stage in ("parse", "allocate", "validate", "execute"):
            assert stage in out
        for column in ("rounds", "spills", "peephole"):
            assert column in out

    def test_profile_reference_run(self, demo_file, capsys):
        assert main(["run", demo_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "execute" in out and "allocate" not in out


class TestCompare:
    def test_compare_sweep(self, demo_file, capsys):
        assert main(["compare", demo_file, "-k", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "RAP vs GRA" in out
        assert out.count("%") >= 2


class TestEmit:
    def test_emit_iloc(self, demo_file, capsys):
        assert main(["emit", demo_file, "--what", "iloc"]) == 0
        out = capsys.readouterr().out
        assert "; function f" in out and "loadI" in out

    def test_emit_pdg(self, demo_file, capsys):
        assert main(["emit", demo_file, "--what", "pdg"]) == 0
        out = capsys.readouterr().out
        assert "[entry]" in out and "(loop)" in out

    def test_emit_dot_single_function(self, demo_file, capsys):
        assert main(
            ["emit", demo_file, "--what", "dot", "--function", "f"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "f"')
        assert 'digraph "main"' not in out

    def test_emit_allocated(self, demo_file, capsys):
        assert main(
            ["emit", demo_file, "--what", "alloc", "--allocator", "gra", "-k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "(gra, k=3)" in out
        # Only physical registers remain as operands (spill-slot *names*
        # legitimately embed the original virtual register, e.g. [f.%v0]).
        assert "=> %v" not in out
        assert ", %v" not in out


class TestTable1Subcommand:
    def test_restricted_table(self, capsys):
        assert main(["table1", "--k", "3", "--programs", "hanoi"]) == 0
        out = capsys.readouterr().out
        assert "hanoi" in out and "Average" in out

    def test_parallel_table_and_wall_footer(self, capsys):
        assert main(
            ["table1", "--k", "3", "--programs", "hanoi", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "hanoi" in captured.out and "Average" in captured.out
        # wall-time footer goes to stderr so stdout stays byte-stable
        assert "[wall]" in captured.err and "jobs=2" in captured.err


@pytest.mark.parametrize(
    "entry",
    [
        lambda argv: main(["table1", *argv]),
        table1.main,
        sweep.main,
        ablations.main,
    ],
    ids=["repro-table1", "bench.table1", "bench.sweep", "bench.ablations"],
)
def test_unknown_program_is_a_usage_error(entry, capsys):
    with pytest.raises(SystemExit) as exit_info:
        entry(["--programs", "nosuch"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    assert "'sieve'" in err and "'matmul'" in err


class TestResilienceCommands:
    def test_run_spillall(self, demo_file, capsys):
        assert main(["run", demo_file, "--allocator", "spillall", "-k", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "45"

    def test_faults_listing(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "gra.interference.drop-edge" in out
        assert "rap.region.raise" in out

    def test_inject_surfaces_structured_error(self, demo_file, capsys):
        code = main(
            ["run", demo_file, "--allocator", "gra", "-k", "3",
             "--inject", "gra.spill.corrupt-slot"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stage=validate" in err
        assert "allocator=gra" in err

    def test_frontend_error_rendered(self, tmp_path, capsys):
        bad = tmp_path / "bad.mc"
        bad.write_text("void main() { int ; }")
        assert main(["run", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fuzz_and_replay_roundtrip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        # A healthy compiler fuzzes clean.
        assert main(["fuzz", "--seeds", "2", "--k", "3",
                     "--allocators", "gra", "--out", out_dir]) == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_bundle_via_cli(self, tmp_path, capsys, monkeypatch):
        from repro.resilience.faults import FaultSpec
        from repro.resilience.triage import (
            make_bundle, probe_failure, write_bundle,
        )

        source = (
            "int f(int a, int b, int c, int d) {\n"
            "    int e; int g; int h;\n"
            "    e = a * b; g = c * d; h = a * d;\n"
            "    return e + g + h + a + b + c + d;\n"
            "}\n"
            "void main() { print(f(2, 3, 5, 7)); }\n"
        )
        # The check that would catch the corrupt slots, patched out.
        monkeypatch.setattr(
            "repro.resilience.pipeline.check_spill_discipline",
            lambda *args, **kwargs: None,
        )
        spec = FaultSpec("gra.spill.corrupt-slot", times=None)
        failure = probe_failure(source, "gra", 3, inject=[spec])
        assert failure is not None
        bundle = make_bundle(
            source, failure, "gra", 3, inject=[spec], minimize=False
        )
        path = write_bundle(bundle, str(tmp_path))
        assert main(["replay", path]) == 0
        assert "reproduces" in capsys.readouterr().out
