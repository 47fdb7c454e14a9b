"""The paper's §4 and ablation claims, as executed-counter inequalities.

One test per claim, named after the section, figure or reference it
checks.  Every ablation claim reads its configuration from
:data:`repro.bench.ablations.ABLATIONS`, the same rows
``python -m repro.bench.ablations`` prints, so a claim and the report
cannot measure different things.  The counters are deterministic
(executed instructions, not time), so each inequality is exact.
"""

import pytest

from repro.bench.ablations import (
    DEFAULT_K,
    DEFAULT_PROGRAMS,
    GRA,
    GRA_CHAITIN,
    GRA_COALESCE,
    GRA_REMAT,
    RAP,
    RAP_COALESCE,
    RAP_GLOBAL_PEEPHOLE,
    RAP_NO_MOTION,
    RAP_NO_PEEPHOLE,
)
from repro.bench.harness import Harness
from repro.bench.suite import PROGRAMS, program
from repro.sched import LatencyModel, schedule_code

FAST_PROGRAMS = ("hanoi", "perm", "queens", "sieve", "hsort")
SCHEDULED_PROGRAMS = ("livermore", "linpack", "hsort")
MODEL = LatencyModel()


@pytest.fixture(scope="module")
def harness():
    return Harness()


@pytest.fixture(scope="module")
def total(harness):
    """``total(ablation, name, k)``: the program's executed counters,
    measured once per module however many claims read them."""
    measured = {}

    def measure(ablation, name, k):
        key = (ablation.label, name, k)
        if key not in measured:
            measured[key] = ablation.total(harness, program(name), k)
        return measured[key]

    return measure


def _schedule_lengths(harness, name, allocator, k):
    """Static schedule length of every function, summed, before and
    after local list scheduling."""
    image, _ = harness.allocate_program(program(name), allocator, k)
    before = after = 0
    for func_image in image.functions.values():
        _, report = schedule_code(list(func_image.code), MODEL)
        before += report.length_before
        after += report.length_after
    return before, after


def test_section4_rap_copies_at_most_gra_at_k7_and_k9(total):
    # With registers to spare RAP's first-fit coloring of small region
    # graphs eliminates copies GRA keeps.  Not at small k: the peephole's
    # pattern 2 turns redundant loads into copies, and §4 itself reports
    # routines where GRA code held fewer copies.
    worse = [
        (bench.name, k)
        for k in (7, 9)
        for bench in PROGRAMS
        if total(RAP, bench.name, k).copies > total(GRA, bench.name, k).copies
    ]
    assert not worse, f"RAP executes more copies than GRA: {worse}"


def test_table1_mean_cycle_gain_is_positive(total):
    # The headline (paper: 2.7%), over the fast half of the suite at
    # k=5 and 9.  Averaged from raw cycles, not Table1.average, so a
    # change to which cells the table counts cannot move it.
    gains = []
    for name in FAST_PROGRAMS:
        for k in (5, 9):
            gra = total(GRA, name, k).cycles
            rap = total(RAP, name, k).cycles
            gains.append(100.0 * (gra - rap) / gra)
    mean = sum(gains) / len(gains)
    assert mean > 0.0, f"RAP should win on average, got {mean:.2f}%"


def test_figure6_peephole_adds_no_cycles(total):
    for name in DEFAULT_PROGRAMS:
        on = total(RAP, name, DEFAULT_K)
        off = total(RAP_NO_PEEPHOLE, name, DEFAULT_K)
        assert on.cycles <= off.cycles, name


def test_section3_2_motion_adds_no_loads(total):
    # Hoisting spill code out of a loop can only remove loads from it.
    for name in DEFAULT_PROGRAMS:
        on = total(RAP, name, DEFAULT_K)
        off = total(RAP_NO_MOTION, name, DEFAULT_K)
        assert on.loads <= off.loads, name


def test_future_work_global_peephole_adds_no_loads(total):
    # "moving spill code out of any subregion": Figure 6's patterns over
    # the whole CFG instead of per basic block.
    for name in DEFAULT_PROGRAMS:
        local = total(RAP, name, DEFAULT_K)
        whole = total(RAP_GLOBAL_PEEPHOLE, name, DEFAULT_K)
        assert whole.loads <= local.loads, name


def test_reference11_gra_rematerialization_adds_no_loads(total):
    # Recomputing a constant-valued spill victim replaces its reloads.
    for name in DEFAULT_PROGRAMS:
        plain = total(GRA, name, DEFAULT_K)
        remat = total(GRA_REMAT, name, DEFAULT_K)
        assert remat.loads <= plain.loads, name


def test_reference9_briggs_spills_no_more_than_chaitin(total):
    # Optimistic coloring spills a subset of what pessimistic coloring
    # spills, so it never executes more spill memory traffic.
    for name in DEFAULT_PROGRAMS:
        briggs = total(GRA, name, DEFAULT_K)
        chaitin = total(GRA_CHAITIN, name, DEFAULT_K)
        assert (
            briggs.loads + briggs.stores <= chaitin.loads + chaitin.stores
        ), name


def test_future_work_coalescing_helps_gra_at_least_as_much_as_rap(total):
    # "particularly, it should improve the performance of GRA": RAP
    # already eliminates most copies by coloring.
    for name in DEFAULT_PROGRAMS:
        gra = total(GRA, name, 5).copies - total(GRA_COALESCE, name, 5).copies
        rap = total(RAP, name, 5).copies - total(RAP_COALESCE, name, 5).copies
        assert gra >= rap, name


def test_section1_scheduling_never_lengthens_a_schedule(harness):
    for name in SCHEDULED_PROGRAMS:
        for allocator in ("gra", "rap"):
            before, after = _schedule_lengths(harness, name, allocator, 4)
            assert after <= before, (name, allocator)


def test_section1_register_pressure_lengthens_schedules(harness):
    # Fewer registers mean more anti and output dependences, so less
    # parallelism for the scheduler: the phase-ordering tension that
    # motivates sharing one PDG between allocator and scheduler.
    for name in SCHEDULED_PROGRAMS:
        tight = _schedule_lengths(harness, name, "gra", 3)[1]
        roomy = _schedule_lengths(harness, name, "gra", 16)[1]
        assert tight >= roomy, name
