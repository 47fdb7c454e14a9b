"""The reference-image cache must be keyed on the schedule flag.

Regression test for a cache-aliasing bug: ``reference_image()`` used a
single cached slot, so a ``schedule=True`` request after a plain one
(or vice versa) would be handed the wrong instruction order — and,
because the decoded form and the compiled-tier translation hang off the
FunctionImage, the wrong *decode cache* as well.  The cache is now keyed per variant; this
pins cached-vs-fresh byte equality for both settings.
"""

from repro.bench.suite import program
from repro.compiler import compile_source
from repro.interp.machine import run_program
from repro.ir.printer import format_code

#: Independent multiplies inside one block give the list scheduler
#: something to actually reorder under the non-unit latency model.
SOURCE = """
void main() {
    int a; int b; int c; int d;
    a = 3 * 5; b = 7 * 11; c = a * b; d = b * a;
    print(a + b); print(c - d);
}
"""


def _listings(image):
    return {name: format_code(fi.code) for name, fi in image.functions.items()}


class TestScheduleKeyedCache:
    def test_cached_matches_fresh_for_both_variants(self):
        shared = compile_source(SOURCE)
        # Warm both variants on one CompiledProgram, in both orders.
        plain_cached = _listings(shared.reference_image(schedule=False))
        sched_cached = _listings(shared.reference_image(schedule=True))
        plain_again = _listings(shared.reference_image(schedule=False))

        plain_fresh = _listings(
            compile_source(SOURCE).reference_image(schedule=False)
        )
        sched_fresh = _listings(
            compile_source(SOURCE).reference_image(schedule=True)
        )

        assert plain_cached == plain_fresh
        assert sched_cached == sched_fresh
        assert plain_again == plain_fresh

    def test_variants_are_distinct_images_with_distinct_decode(self):
        prog = compile_source(SOURCE)
        plain = prog.reference_image(schedule=False)
        sched = prog.reference_image(schedule=True)
        assert plain is not sched
        # Decode caches live on the per-variant FunctionImages, so
        # decoding one variant must not populate (or poison) the other.
        run_program(plain)
        assert plain.functions["main"]._decoded
        assert sched.functions["main"]._decoded is None

    def test_schedule_actually_reorders_but_preserves_behaviour(self):
        prog = compile_source(SOURCE)
        plain = prog.reference_image(schedule=False)
        sched = prog.reference_image(schedule=True)
        assert _listings(plain) != _listings(sched), (
            "scheduler moved nothing; pick a source with instruction-level"
            " parallelism"
        )
        a, b = run_program(plain), run_program(sched)
        assert a.output == b.output
        assert a.total.cycles == b.total.cycles  # permutation, 1 cycle each

    def test_suite_program_cache_identity_per_variant(self):
        prog = compile_source(program("sieve").source())
        assert prog.reference_image() is prog.reference_image()
        assert prog.reference_image(schedule=True) is prog.reference_image(
            schedule=True
        )
        assert prog.reference_image() is not prog.reference_image(
            schedule=True
        )
