"""FunctionAnalysis's indexed queries against brute-force recomputation.

The snapshot answers locality, reference sets, region liveness and ud/du
chains from indexes built once (span tests over linear positions, each
register's own reference list).  Here every answer is recomputed the slow
way — walking ``region.walk_instrs()``, a fresh ``compute_liveness`` over a
fresh linearization, and a forward scan over the code — on fresh
snapshots, on every snapshot RAP derives after a spill round, and on the
round-start snapshot RAP reuses for later victims of the same round.
"""

from typing import Dict, Set

import pytest

import repro.pdg.liveness as pdg_liveness
import repro.regalloc.rap.region_alloc as region_alloc
from repro.bench.suite import program
from repro.cfg.graph import CFG
from repro.cfg.liveness import compute_liveness
from repro.compiler import compile_source
from repro.ir.iloc import Op, Reg
from repro.pdg.linearize import insert_instrs, linearize
from repro.pdg.liveness import FunctionAnalysis
from repro.regalloc.rap.allocator import allocate_rap

PROGRAMS = ["queens", "hanoi", "sieve", "puzzle", "bubble"]

#: y's last reference is the first instruction after the statement region
#: defining it, right on that region's span boundary.
BOUNDARY = """
int f(int n) {
    int x;
    int y;
    x = n + 1;
    y = x * 2;
    print(y);
    return n;
}
void main() { print(f(3)); }
"""


class BruteForce:
    """Every query answered from scratch over the function's current PDG."""

    def __init__(self, func):
        self.func = func
        self.linear = linearize(func)
        self.cfg = CFG(self.linear.instrs)
        self.live = compute_liveness(self.cfg)
        self.counts: Dict[Reg, int] = {}
        for instr in func.walk_instrs():
            for reg in instr.regs():
                self.counts[reg] = self.counts.get(reg, 0) + 1

    def referenced(self, region) -> Set[Reg]:
        return {reg for instr in region.walk_instrs() for reg in instr.regs()}

    def is_local_to(self, reg, region) -> bool:
        inside = sum(instr.regs().count(reg) for instr in region.walk_instrs())
        return inside == self.counts.get(reg, 0)

    def live_in(self, region) -> Set[Reg]:
        return self.live.live_at[self.linear.region_span[region][0]]

    def live_out(self, region) -> Set[Reg]:
        return self.live.live_at[self.linear.region_span[region][1]]

    def reaching_defs(self, reg) -> Dict[int, Set[int]]:
        """use id -> ids of the definitions reaching it, by walking
        forward from every definition until the register is redefined.
        Like the dataflow it checks, a walk never enters an unreachable
        block (a definition inside one still leaves it)."""
        code = self.cfg.code
        reachable = {block.index for block in self.cfg.reverse_postorder()}
        reached: Dict[int, Set[int]] = {
            id(instr): set() for instr in code if reg in instr.uses
        }

        def successors(position):
            block = self.cfg.block_at[position]
            if position + 1 < block.end:
                return [position + 1]
            return [succ.start for succ in block.succs if succ.index in reachable]

        for position, definition in enumerate(code):
            if definition.dst != reg:
                continue
            seen: Set[int] = set()
            stack = successors(position)
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                instr = code[current]
                if reg in instr.uses:
                    reached[id(instr)].add(id(definition))
                if instr.dst != reg:
                    stack.extend(successors(current))
        return reached


def ids(instrs) -> Set[int]:
    return {id(instr) for instr in instrs}


def assert_register_matches(analysis: FunctionAnalysis, brute: BruteForce, reg):
    for region in brute.func.walk_regions():
        assert analysis.is_local_to(reg, region) == brute.is_local_to(reg, region)
        assert (reg in analysis.referenced(region)) == (reg in brute.referenced(region))
        assert (reg in analysis.live_in(region)) == (reg in brute.live_in(region))
        assert (reg in analysis.live_out(region)) == (reg in brute.live_out(region))
    chains = analysis.chains(reg)
    expected = brute.reaching_defs(reg)
    assert ids(chains.all_uses()) == set(expected)
    for use in chains.all_uses():
        assert ids(chains.defs_reaching(use)) == expected[id(use)]
    for definition in chains.all_defs():
        assert definition.dst == reg
        for use in chains.uses_reached_by(definition):
            assert id(definition) in expected[id(use)]


def assert_snapshot_matches(analysis: FunctionAnalysis, func):
    brute = BruteForce(func)
    for region in func.walk_regions():
        assert analysis.referenced(region) == brute.referenced(region)
        assert analysis.live_in(region) == brute.live_in(region)
        assert analysis.live_out(region) == brute.live_out(region)
    for reg in sorted(brute.counts):
        assert_register_matches(analysis, brute, reg)


@pytest.mark.parametrize("name", PROGRAMS + ["boundary"])
def test_fresh_snapshot_matches_brute_force(name):
    source = BOUNDARY if name == "boundary" else program(name).source()
    module = compile_source(source).module
    for func in module.functions.values():
        assert_snapshot_matches(FunctionAnalysis(func), func)


def block_shape(cfg):
    blocks = [
        (b.start, b.end, [s.index for s in b.succs], [p.index for p in b.preds])
        for b in cfg.blocks
    ]
    return blocks, [b.index for b in cfg.reverse_postorder()], cfg.reachable()


def test_derived_snapshot_is_a_fresh_linearization(monkeypatch):
    # after_spill patches the linear code and CFG instead of rebuilding
    # them; the patch must equal what a rebuild produces.
    checked = []
    original = FunctionAnalysis.after_spill.__func__

    def checking(cls, previous, regs, placements):
        derived = original(cls, previous, regs, placements)
        fresh = FunctionAnalysis(previous.func)
        assert len(derived.linear.instrs) == len(fresh.linear.instrs)
        for mine, theirs in zip(derived.linear.instrs, fresh.linear.instrs):
            # Labels, jumps and the closing ret are re-created per
            # linearization; every PDG instruction is shared.
            assert mine is theirs or (
                mine.op in (Op.LABEL, Op.JMP, Op.RET) and str(mine) == str(theirs)
            )
        assert derived.linear.region_span == fresh.linear.region_span
        assert block_shape(derived.cfg) == block_shape(fresh.cfg)
        assert derived.live.block_live_in == fresh.live.block_live_in
        assert derived.live.block_live_out == fresh.live.block_live_out
        checked.append(derived)
        return derived

    def patching(code, placements):
        patched = insert_instrs(code, placements)
        # No empty region or boundary interleaving here: never the
        # relinearizing fallback.
        assert patched is not None
        return patched

    monkeypatch.setattr(FunctionAnalysis, "after_spill", classmethod(checking))
    monkeypatch.setattr(pdg_liveness, "insert_instrs", patching)
    for name in ("puzzle", "queens", "livermore"):
        module = compile_source(program(name).source()).fresh_module()
        for func in module.functions.values():
            allocate_rap(func, 3)
    assert checked


@pytest.mark.parametrize("name", ["queens", "hanoi", "sieve"])
def test_derived_snapshots_match_brute_force(name, monkeypatch):
    checked = []
    original = FunctionAnalysis.after_spill.__func__

    def checking(cls, previous, regs, placements):
        derived = original(cls, previous, regs, placements)
        assert_snapshot_matches(derived, previous.func)
        checked.append(derived)
        return derived

    monkeypatch.setattr(FunctionAnalysis, "after_spill", classmethod(checking))
    module = compile_source(program(name).source()).fresh_module()
    for func in module.functions.values():
        allocate_rap(func, 3)
    assert checked, f"{name} no longer spills at k=3"


@pytest.mark.parametrize("name", ["puzzle", "queens", "sieve"])
def test_round_start_snapshot_answers_later_victims(name, monkeypatch):
    # Later victims of a round are planned against the round-start
    # snapshot although earlier victims already mutated the PDG; every
    # query about the victim itself must still be exact.
    shared = []
    original = region_alloc.spill_register

    def checking(ctx, region, victim):
        analysis = ctx.planning_analysis()
        if analysis.version != ctx.func.version:
            shared.append(victim)
        assert_register_matches(analysis, BruteForce(ctx.func), victim)
        original(ctx, region, victim)

    monkeypatch.setattr(region_alloc, "spill_register", checking)
    module = compile_source(program(name).source()).fresh_module()
    for func in module.functions.values():
        allocate_rap(func, 3)
    assert shared, f"{name} no longer spills two registers in one round"
