"""Crash triage: probing, delta minimization, bundles, and replay."""

import json
import os

import pytest

from repro.resilience.faults import FaultSpec
from repro.resilience.triage import (
    Failure,
    load_bundle,
    make_bundle,
    minimize_source,
    probe_failure,
    replay_bundle,
    write_bundle,
)
from repro.testing.generator import random_source

GOOD = """
void main() { int i; i = 2; print(i + 3); }
"""

#: A scenario that deterministically miscompiles: the spill slots of every
#: GRA load are corrupted while the check that would catch it is patched
#: out (``spill_check_off``), so the corrupt loads read zeros and the
#: output diverges.
MISCOMPILE_SPEC = FaultSpec("gra.spill.corrupt-slot", times=None)


@pytest.fixture
def spill_check_off(monkeypatch):
    monkeypatch.setattr(
        "repro.resilience.pipeline.check_spill_discipline",
        lambda *args, **kwargs: None,
    )

SPILLY = """
int f(int a, int b, int c, int d) {
    int e; int g; int h;
    e = a * b; g = c * d; h = a * d;
    return e + g + h + a + b + c + d;
}
void main() { print(f(2, 3, 5, 7)); }
"""


class TestProbeFailure:
    def test_healthy_scenario(self):
        assert probe_failure(GOOD, "gra", 4) is None

    def test_invalid_source_is_not_a_failure(self):
        # A program that does not compile is an invalid witness.
        assert probe_failure("void main() { int ; }", "gra", 4) is None

    def test_crash_probe(self):
        failure = probe_failure(
            SPILLY, "rap", 3, inject=[FaultSpec("rap.region.raise")]
        )
        assert failure is not None
        assert failure.kind == "crash"
        assert failure.stage == "allocate"

    def test_miscompile_probe(self, spill_check_off):
        failure = probe_failure(SPILLY, "gra", 3, inject=[MISCOMPILE_SPEC])
        assert failure is not None
        assert failure.kind == "miscompile"
        assert failure.expected != failure.actual
        assert failure.divergence_index == 0

    def test_injection_plan_is_per_probe(self):
        # A times=1 spec fires on *every* call, not only the first: each
        # probe gets a fresh plan (what minimization and replay rely on).
        spec = FaultSpec("rap.region.raise")
        for _ in range(2):
            failure = probe_failure(SPILLY, "rap", 3, inject=[spec])
            assert failure is not None and failure.kind == "crash"


class TestMinimize:
    def test_minimizes_to_signature(self, spill_check_off):
        source = random_source(0, "small")
        failure = probe_failure(source, "gra", 3, inject=[MISCOMPILE_SPEC])
        assert failure is not None and failure.kind == "miscompile"

        def still_fails(candidate):
            observed = probe_failure(
                candidate, "gra", 3, inject=[MISCOMPILE_SPEC]
            )
            return observed is not None and observed.matches(failure)

        minimized = minimize_source(source, still_fails)
        assert len(minimized.splitlines()) < len(source.splitlines())
        assert still_fails(minimized)

    def test_non_failing_input_returned_unchanged(self):
        assert minimize_source(GOOD, lambda s: False) == GOOD

    def test_budget_bounds_evaluations(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True

        minimize_source("a\n" * 64, predicate, budget=10)
        assert len(calls) <= 10


@pytest.mark.usefixtures("spill_check_off")
class TestBundles:
    def make(self, tmp_path):
        failure = probe_failure(SPILLY, "gra", 3, inject=[MISCOMPILE_SPEC])
        bundle = make_bundle(
            SPILLY, failure, "gra", 3, seed=7, size="small",
            inject=[MISCOMPILE_SPEC],
        )
        return write_bundle(bundle, str(tmp_path))

    @staticmethod
    def rewrite_meta(path, **changes):
        meta_path = os.path.join(path, "bundle.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta.update(changes)
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)

    def test_bundle_layout(self, tmp_path):
        from repro.resilience.triage import failure_signature

        path = self.make(tmp_path)
        signature = failure_signature("miscompile", "compare", None)
        assert os.path.basename(path) == f"miscompile-gra-k3-{signature}"
        for name in ("repro.mc", "original.mc", "bundle.json", "README.md"):
            assert os.path.exists(os.path.join(path, name)), name
        with open(os.path.join(path, "bundle.json")) as handle:
            meta = json.load(handle)
        assert meta["kind"] == "miscompile"
        assert meta["replay"] == f"python -m repro replay {path}"
        assert meta["injected"][0]["point"] == "gra.spill.corrupt-slot"

    def test_roundtrip_and_replay(self, tmp_path):
        path = self.make(tmp_path)
        bundle = load_bundle(path)
        assert bundle.allocator == "gra" and bundle.k == 3

        result = replay_bundle(path)
        assert result.reproduced, result.describe()
        assert "reproduces" in result.describe()

    def test_fixed_bug_does_not_reproduce(self, tmp_path):
        path = self.make(tmp_path)
        # Simulate the fix: drop the recorded fault plan.
        self.rewrite_meta(path, injected=[])
        result = replay_bundle(path)
        assert not result.reproduced
        assert "does NOT reproduce" in result.describe()

    def test_replay_ignores_deleted_config_knobs(self, tmp_path):
        path = self.make(tmp_path)
        # A bundle from a build that recorded its pipeline config.
        self.rewrite_meta(
            path,
            config={"verify": True, "max_alloc_rounds": None},
            granularity="statement",
        )
        result = replay_bundle(path)
        assert result.reproduced, result.describe()

    def test_bundle_json_from_an_older_build_replays(self, tmp_path):
        # bundle.json as written while TriageBundle still had ``config``
        # and ``granularity``: the keys are dropped on load.
        path = tmp_path / "miscompile-gra-k3-old"
        path.mkdir()
        (path / "repro.mc").write_text(SPILLY)
        meta = {
            "actual": [0], "allocator": "gra", "divergence_index": 0,
            "error": "output diverges from reference at index 0",
            "expected": [72], "function": None, "granularity": "statement",
            "hits": 2, "injected": [
                {"function": "*", "point": "gra.spill.corrupt-slot",
                 "skip": 0, "times": None}
            ],
            "k": 3, "kind": "miscompile", "replay": "python -m repro replay x",
            "seed": 7, "seeds": [7, 9], "size": "small", "stage": "compare",
            "config": {
                "granularity": "statement", "max_cycles": 50000000,
                "schedule": False, "verify_assignment": True,
                "verify_motion": True, "verify_peephole": True,
                "verify_schedule": True, "verify_spill_discipline": False,
                "verify_ssa": True, "wrap_frontend_errors": True,
            },
        }
        (path / "bundle.json").write_text(json.dumps(meta, indent=2))
        bundle = load_bundle(str(path))
        assert (bundle.hits, bundle.seeds) == (2, [7, 9])
        result = replay_bundle(str(path))
        assert result.reproduced, result.describe()

    def test_signature_matching(self):
        a = Failure(kind="crash", stage="allocate", error="x")
        b = Failure(kind="crash", stage="allocate", error="entirely different")
        c = Failure(kind="miscompile", stage="compare", error="x")
        assert a.matches(b)
        assert not a.matches(c)
