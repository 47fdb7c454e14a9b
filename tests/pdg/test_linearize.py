"""Tests for PDG linearization."""

from repro.compiler import compile_source
from repro.ir.iloc import Op, Symbol, ldm, vreg
from repro.pdg.linearize import insert_instrs, linearize
from repro.pdg.nodes import Region


def func_of(source, name="f"):
    return compile_source(source).module.functions[name]


class TestStructure:
    def test_ends_with_ret(self):
        linear = linearize(func_of("void f() { int x; x = 1; }"))
        assert linear.instrs[-1].op is Op.RET

    def test_explicit_ret_not_duplicated(self):
        linear = linearize(func_of("int f() { return 1; }"))
        rets = [i for i in linear.instrs if i.op is Op.RET]
        assert len(rets) == 1

    def test_instruction_objects_shared_with_pdg(self):
        func = func_of("void f() { int x; x = 1 + 2; }")
        linear = linearize(func)
        pdg_ids = {id(i) for i in func.walk_instrs()}
        emitted = [i for i in linear.instrs if i.op not in (Op.LABEL, Op.JMP, Op.RET)]
        assert all(id(i) in pdg_ids for i in emitted)

    def test_if_emits_branch_then_both_arms(self):
        linear = linearize(
            func_of("void f() { int x; if (1) { x = 1; } else { x = 2; } }")
        )
        ops = [i.op for i in linear.instrs]
        assert Op.CBR in ops and Op.JMP in ops

    def test_branch_labels_resolve(self):
        linear = linearize(
            func_of("void f() { int x; if (1) { x = 1; } else { x = 2; } }")
        )
        labels = {i.label for i in linear.instrs if i.op is Op.LABEL}
        for instr in linear.instrs:
            if instr.op is Op.CBR:
                assert instr.label in labels and instr.label_false in labels
            if instr.op is Op.JMP:
                assert instr.label in labels

    def test_loop_has_back_edge_jump(self):
        linear = linearize(
            func_of("void f() { int i; i = 0; while (i < 3) { i = i + 1; } }")
        )
        label_pos = {
            i.label: pos
            for pos, i in enumerate(linear.instrs)
            if i.op is Op.LABEL
        }
        jumps = [(pos, i) for pos, i in enumerate(linear.instrs) if i.op is Op.JMP]
        assert any(label_pos[i.label] < pos for pos, i in jumps)

    def test_if_without_else_falls_through(self):
        linear = linearize(func_of("void f() { if (1) { print(1); } }"))
        cbr = next(i for i in linear.instrs if i.op is Op.CBR)
        # With no else, the false edge goes straight to the join label.
        assert cbr.label_false.startswith("f_endif") or "endif" in cbr.label_false


class TestSpans:
    def test_spans_are_contiguous_and_nested(self):
        func = func_of(
            """
            void f() {
                int i; int s;
                s = 0;
                for (i = 0; i < 4; i = i + 1) {
                    if (i > 1) { s = s + i; } else { s = s - 1; }
                }
                print(s);
            }
            """
        )
        linear = linearize(func)
        spans = linear.region_span
        for region, (start, end) in spans.items():
            assert 0 <= start <= end <= len(linear.instrs)
        # Child spans nest within their parent's span.
        for region, (start, end) in spans.items():
            for sub in region.subregions():
                sub_start, sub_end = spans[sub]
                assert start <= sub_start <= sub_end <= end

    def test_every_region_has_a_span(self):
        func = func_of("void f() { int x; if (1) { x = 1; } while (x) { x = 0; } }")
        linear = linearize(func)
        for region in func.walk_regions():
            assert region in linear.region_span

    def test_index_of_matches_positions(self):
        func = func_of("void f() { int x; x = 1; x = 2; }")
        linear = linearize(func)
        for pos, instr in enumerate(linear.instrs):
            if instr.op not in (Op.LABEL,):
                assert linear.index_of(instr) == pos

    def test_relinearization_is_deterministic(self):
        func = func_of("void f() { int x; if (1) { x = 1; } else { x = 2; } }")
        first = [str(i) for i in linearize(func).instrs]
        second = [str(i) for i in linearize(func).instrs]
        assert first == second

    def test_str_listing(self):
        func = func_of("void f() { int x; x = 1; }")
        text = str(linearize(func))
        assert "loadI" in text and "i2i" in text


class TestInsertInstrs:
    SOURCE = "void f() { int x; int y; x = 1; y = x + 2; print(y); }"

    def test_patch_equals_relinearization(self):
        func = func_of(self.SOURCE)
        linear = linearize(func)
        # A load opening y's statement: at the gap where x's statement
        # ends, inside the one and outside the other.
        statement = func.entry.subregions()[1]
        anchor = statement.items[0]
        new = ldm(Symbol("f.y"), vreg(9))
        statement.items.insert(0, new)
        owners = frozenset({id(func.entry), id(statement)})
        patched = insert_instrs(linear, [(linear.index_of(anchor), new, owners)])
        fresh = linearize(func)
        assert [str(i) for i in patched.instrs] == [str(i) for i in fresh.instrs]
        assert patched.region_span == fresh.region_span
        assert patched.index_of(new) == fresh.index_of(new)

    def test_empty_region_at_a_gap_is_left_to_relinearization(self):
        func = func_of(self.SOURCE)
        empty = Region()
        func.entry.items.insert(1, empty)
        linear = linearize(func)
        start, end = linear.region_span[empty]
        assert start == end
        new = ldm(Symbol("f.y"), vreg(9))
        owners = frozenset({id(func.entry)})
        assert insert_instrs(linear, [(start, new, owners)]) is None
