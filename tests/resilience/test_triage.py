"""Crash triage: probing, delta minimization, bundles, and replay."""

import json
import os

from repro.resilience.faults import FaultSpec
from repro.resilience.pipeline import PipelineConfig
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
#: GRA load are corrupted while the validator that would catch it is off,
#: so the corrupt loads read zeros and the output diverges.
MISCOMPILE_CFG = PipelineConfig(verify_spill_discipline=False)
MISCOMPILE_SPEC = FaultSpec("gra.spill.corrupt-slot", times=None)

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

    def test_miscompile_probe(self):
        failure = probe_failure(
            SPILLY, "gra", 3, config=MISCOMPILE_CFG, inject=[MISCOMPILE_SPEC]
        )
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
    def test_minimizes_to_signature(self):
        source = random_source(0, "small")
        failure = probe_failure(
            source, "gra", 3, config=MISCOMPILE_CFG, inject=[MISCOMPILE_SPEC]
        )
        assert failure is not None and failure.kind == "miscompile"

        def still_fails(candidate):
            observed = probe_failure(
                candidate, "gra", 3,
                config=MISCOMPILE_CFG, inject=[MISCOMPILE_SPEC],
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


class TestBundles:
    def make(self, tmp_path):
        failure = probe_failure(
            SPILLY, "gra", 3, config=MISCOMPILE_CFG, inject=[MISCOMPILE_SPEC]
        )
        bundle = make_bundle(
            SPILLY, failure, "gra", 3, seed=7, size="small",
            config=MISCOMPILE_CFG, inject=[MISCOMPILE_SPEC],
        )
        return write_bundle(bundle, str(tmp_path))

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
        assert meta["config"]["verify_spill_discipline"] is False
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
        meta_path = os.path.join(path, "bundle.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["injected"] = []
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        result = replay_bundle(path)
        assert not result.reproduced
        assert "does NOT reproduce" in result.describe()

    def test_replay_ignores_deleted_config_knobs(self, tmp_path):
        path = self.make(tmp_path)
        # A bundle from a build whose PipelineConfig still had these.
        meta_path = os.path.join(path, "bundle.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["config"].update(verify=True, max_alloc_rounds=None)
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        result = replay_bundle(path)
        assert result.reproduced, result.describe()

    def test_signature_matching(self):
        a = Failure(kind="crash", stage="allocate", error="x")
        b = Failure(kind="crash", stage="allocate", error="entirely different")
        c = Failure(kind="miscompile", stage="compare", error="x")
        assert a.matches(b)
        assert not a.matches(c)
