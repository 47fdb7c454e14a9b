"""Tests for CFG construction."""

from repro.cfg.graph import CFG
from repro.ir import iloc
from repro.ir.iloc import Instr, Op, vreg


def diamond():
    """if (v0) v1=1 else v1=2; ret v1"""
    return [
        iloc.loadi(1, vreg(0)),
        iloc.cbr(vreg(0), "T", "F"),
        iloc.label("T"),
        iloc.loadi(1, vreg(1)),
        iloc.jmp("E"),
        iloc.label("F"),
        iloc.loadi(2, vreg(1)),
        iloc.label("E"),
        Instr(Op.RET, srcs=[vreg(1)]),
    ]


def loop():
    return [
        iloc.loadi(0, vreg(0)),
        iloc.label("H"),
        iloc.loadi(10, vreg(1)),
        iloc.binary(Op.CMP_LT, vreg(0), vreg(1), vreg(2)),
        iloc.cbr(vreg(2), "B", "X"),
        iloc.label("B"),
        iloc.loadi(1, vreg(3)),
        iloc.binary(Op.ADD, vreg(0), vreg(3), vreg(0)),
        iloc.jmp("H"),
        iloc.label("X"),
        Instr(Op.RET),
    ]


class TestDiamond:
    def test_block_count(self):
        cfg = CFG(diamond())
        assert len(cfg.blocks) == 4

    def test_entry_has_two_successors(self):
        cfg = CFG(diamond())
        assert len(cfg.entry_block().succs) == 2

    def test_join_has_two_predecessors(self):
        cfg = CFG(diamond())
        join = cfg.blocks[-1]
        assert len(join.preds) == 2

    def test_ret_block_has_no_successors(self):
        cfg = CFG(diamond())
        assert cfg.blocks[-1].succs == []

    def test_every_position_belongs_to_one_block(self):
        cfg = CFG(diamond())
        for index, block in enumerate(cfg.block_at):
            assert block is not None
            assert block.start <= index < block.end


class TestLoop:
    def test_back_edge_present(self):
        cfg = CFG(loop())
        header = cfg.block_at[1]
        body = next(b for b in cfg.blocks if header in b.succs and b is not cfg.entry_block())
        assert body in header.preds or header in body.succs

    def test_header_has_two_preds(self):
        cfg = CFG(loop())
        header = cfg.block_at[1]
        assert len(header.preds) == 2  # entry fallthrough + back edge

    def test_reverse_postorder_starts_at_entry(self):
        cfg = CFG(loop())
        order = cfg.reverse_postorder()
        assert order[0] is cfg.entry_block()
        assert len(order) == len(cfg.blocks)

    def test_reverse_postorder_visits_reachable_once(self):
        cfg = CFG(diamond())
        order = cfg.reverse_postorder()
        assert len({b.index for b in order}) == len(order)

    def test_reverse_postorder_is_computed_once(self):
        cfg = CFG(loop())
        first = cfg.reverse_postorder()
        again = cfg.reverse_postorder()
        assert again is first
        assert [b.index for b in again] == [b.index for b in first]


class TestEdgeCases:
    def test_straightline_single_block(self):
        code = [iloc.loadi(1, vreg(0)), Instr(Op.RET)]
        cfg = CFG(code)
        assert len(cfg.blocks) == 1

    def test_cbr_with_same_true_false_target_single_successor(self):
        code = [
            iloc.loadi(1, vreg(0)),
            iloc.cbr(vreg(0), "L", "L"),
            iloc.label("L"),
            Instr(Op.RET),
        ]
        cfg = CFG(code)
        assert len(cfg.entry_block().succs) == 1

    def test_unreachable_code_still_gets_blocks(self):
        code = [
            Instr(Op.RET),
            iloc.loadi(1, vreg(0)),  # unreachable
        ]
        cfg = CFG(code)
        assert len(cfg.blocks) == 2
        assert cfg.blocks[1] not in cfg.entry_block().succs


def shape(cfg):
    blocks = [
        (b.start, b.end, [s.index for s in b.succs], [p.index for p in b.preds])
        for b in cfg.blocks
    ]
    return blocks, [b.index for b in cfg.reverse_postorder()], cfg.reachable()


class TestWithInsertions:
    def test_insertions_shift_blocks_like_a_rebuild(self):
        code = loop()
        cfg = CFG(code)
        # Twice before position 1 (the header label: joins the entry
        # block), before 7 (mid-block) and before 10 (the closing ret).
        gaps = [1, 1, 7, 10]
        new = list(code)
        for gap in reversed(gaps):
            new.insert(gap, iloc.loadi(7, vreg(9)))
        patched = CFG.with_insertions(cfg, new, gaps)
        assert shape(patched) == shape(CFG(new))
        assert [b.index for b in patched.block_at] == [
            b.index for b in CFG(new).block_at
        ]

    def test_insertion_leading_a_block_is_refused(self):
        # Right after the jump and before label X, the new instruction
        # would be a block of its own: the caller must build afresh.
        code = loop()
        new = list(code)
        new.insert(9, iloc.loadi(7, vreg(9)))
        assert CFG.with_insertions(CFG(code), new, [9]) is None
        assert len(CFG(new).blocks) == len(CFG(code).blocks) + 1
