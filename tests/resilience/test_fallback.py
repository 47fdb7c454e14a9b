"""The fallback ladder and its bookkeeping in harness, service worker
and Table 1."""

import pytest

from repro.bench.harness import Harness, build_table1
from repro.bench.suite import program
from repro.resilience import faults
from repro.resilience.errors import StageContext, StageError
from repro.resilience.fallback import FallbackEvent, chain_for, walk_ladder
from repro.resilience.faults import FaultSpec
from repro.resilience.pipeline import PassPipeline

BENCH = program("sieve")


class TestChain:
    def test_orders(self):
        assert chain_for("rap") == [
            "rap", "gra", "ssaspill", "linearscan", "spillall"
        ]
        assert chain_for("gra") == [
            "gra", "ssaspill", "linearscan", "spillall"
        ]
        assert chain_for("ssaspill") == ["ssaspill", "linearscan", "spillall"]
        assert chain_for("linearscan") == ["linearscan", "spillall"]
        assert chain_for("spillall") == ["spillall"]

    def test_unknown_allocator(self):
        with pytest.raises(ValueError):
            chain_for("magic")

    def test_event_rendering(self):
        event = FallbackEvent("rap", "validate", "boom")
        assert str(event) == "rap failed at validate: boom"
        assert event.as_dict() == {
            "allocator": "rap", "stage": "validate", "reason": "boom"
        }


class TestWalkLadder:
    @staticmethod
    def failing_at(*broken):
        def attempt(rung):
            if rung in broken:
                raise StageError(f"{rung} broke", StageContext("validate"))
            return f"image from {rung}"

        return attempt

    def test_first_rung_that_returns_wins(self):
        value, used, events = walk_ladder("rap", self.failing_at("rap", "gra"))
        assert (value, used) == ("image from ssaspill", "ssaspill")
        assert events == [
            FallbackEvent("rap", "validate", "rap broke"),
            FallbackEvent("gra", "validate", "gra broke"),
        ]

    def test_last_rung_error_propagates(self):
        with pytest.raises(StageError, match="spillall broke"):
            walk_ladder("linearscan", self.failing_at("linearscan", "spillall"))

    def test_fail_fast_tries_only_the_request(self):
        with pytest.raises(StageError, match="gra broke"):
            walk_ladder("gra", self.failing_at("gra"), fallback=False)

    def test_other_exceptions_are_not_absorbed(self):
        def attempt(rung):
            raise KeyError(rung)

        with pytest.raises(KeyError):
            walk_ladder("rap", attempt)

    def test_unknown_allocator(self):
        with pytest.raises(ValueError):
            walk_ladder("magic", self.failing_at())


def _via_harness(allocator, k):
    run = Harness([BENCH]).run(BENCH, allocator, k)
    events = [(e.allocator, e.stage) for e in run.fallbacks_taken]
    return run.allocator_used, events, run.stats.output


def _via_compile_cold(allocator, k):
    from repro.service.server import compile_cold

    spec = {
        "source": BENCH.source(),
        "rung": allocator,
        "k": k,
        "schedule": False,
        "execute": True,
        "entry": "main",
        "max_cycles": BENCH.max_cycles,
        "filename": BENCH.filename,
    }
    body = compile_cold(PassPipeline(), spec)
    events = [(e["allocator"], e["stage"]) for e in body["fallbacks"]]
    return body["allocator_used"], events, body["output"]


class TestLadderCallersAgree:
    """The harness and the service worker walk one ladder: a knocked-out
    rung lands both on the same next rung with the same events."""

    @pytest.mark.parametrize(
        "caller", [_via_harness, _via_compile_cold], ids=["harness", "compile_cold"]
    )
    @pytest.mark.parametrize(
        "probe, rung, lands_on",
        [
            # The Chaitin baseline's spill slots corrupt: the miscompile
            # is caught at validate, before execution.
            ("gra.spill.corrupt-slot", "gra", "ssaspill"),
            # SSA renaming resolves a use to a shadowed definition: the
            # construction validator catches it.
            ("ssa.rename.stale-def", "ssaspill", "linearscan"),
        ],
        ids=["gra", "ssaspill"],
    )
    def test_knockout_lands_one_rung_down(self, caller, probe, rung, lands_on):
        with faults.injected(FaultSpec(probe, times=None)):
            used, events, output = caller(rung, 3)
        assert used == lands_on
        assert events == [(rung, "validate")]
        assert output == Harness([BENCH]).reference_output(BENCH)


class TestHarnessLadder:
    def test_healthy_run_records_nothing(self):
        harness = Harness([BENCH])
        run = harness.run(BENCH, "rap", 5)
        assert run.allocator_used == "rap"
        assert run.fallbacks_taken == []

    def test_two_rung_descent(self):
        # rap crashes AND gra's spill slots corrupt: the SSA
        # spill-then-color rung is the next intact one.
        with faults.injected(
            FaultSpec("rap.region.raise", times=None),
            FaultSpec("gra.spill.corrupt-slot", times=None),
        ):
            harness = Harness([BENCH])
            run = harness.run(BENCH, "rap", 3)
        assert run.allocator_used == "ssaspill"
        assert [e.allocator for e in run.fallbacks_taken] == ["rap", "gra"]
        assert run.stats.output == harness.reference_output(BENCH)

    def test_three_rung_descent(self):
        with faults.injected(
            FaultSpec("rap.region.raise", times=None),
            FaultSpec("gra.spill.corrupt-slot", times=None),
            FaultSpec("ssa.rename.stale-def", times=None),
        ):
            harness = Harness([BENCH])
            run = harness.run(BENCH, "rap", 3)
        assert run.allocator_used == "linearscan"
        assert [e.allocator for e in run.fallbacks_taken] == [
            "rap", "gra", "ssaspill"
        ]
        assert run.stats.output == harness.reference_output(BENCH)

    def test_requested_kwargs_not_inherited_by_fallback(self):
        # enable_motion is a RAP-only kwarg; after RAP is knocked out it
        # must not be forwarded to GRA (which would TypeError).
        with faults.injected(FaultSpec("rap.region.raise", times=None)):
            harness = Harness([BENCH])
            run = harness.run(BENCH, "rap", 5, enable_motion=False)
        assert run.allocator_used == "gra"


class TestTable1Degradation:
    def test_sweep_completes_with_fault_and_reports_cells(self):
        with faults.injected(FaultSpec("rap.region.raise", times=None)):
            harness = Harness([BENCH])
            table = build_table1(harness, k_values=(3,))
        degraded = table.degraded_cells()
        assert degraded, "fallback was taken but no cell reports it"
        routine, k, events = degraded[0]
        assert k == 3
        assert events[0].allocator == "rap"
        for row in table.cells.values():
            assert row[3].fallbacks

    def test_clean_sweep_reports_no_cells(self):
        harness = Harness([BENCH])
        table = build_table1(harness, k_values=(3,))
        assert table.degraded_cells() == []
