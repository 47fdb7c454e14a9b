"""Tests for the PDG containers (Module, PDGFunction, GlobalVar)."""

import pytest

from repro.compiler import compile_source
from repro.ir import iloc
from repro.ir.iloc import Op, vreg
from repro.pdg.graph import GlobalVar, Module, ParamInfo, PDGFunction
from repro.pdg.nodes import Predicate, Region


SOURCE = """
int g = 3;
float arr[8];
int f(int a, int b) {
    int x;
    x = a + b;
    if (x > 0) { x = x - 1; }
    while (x > 0) { x = x / 2; }
    return x;
}
void main() { print(f(4, 5)); }
"""


@pytest.fixture()
def module():
    return compile_source(SOURCE).fresh_module()


class TestGlobalVar:
    def test_scalar_size(self):
        assert GlobalVar("n", "int").size == 1
        assert not GlobalVar("n", "int").is_array

    def test_array_sizes(self):
        assert GlobalVar("a", "int", [10]).size == 10
        assert GlobalVar("m", "float", [3, 4]).size == 12


class TestModule:
    def test_lookup(self, module):
        assert module.function("f").name == "f"
        assert module.globals["g"].init == 3
        assert module.globals["arr"].dims == [8]

    def test_unknown_function_raises(self, module):
        with pytest.raises(KeyError):
            module.function("nope")


class TestPDGFunction:
    def test_new_vregs_are_fresh(self, module):
        func = module.function("f")
        before = func.referenced_regs()
        fresh = func.new_vreg()
        assert fresh not in before
        assert func.new_vreg() != fresh

    def test_reserve_vregs(self):
        func = PDGFunction("t", "void", [])
        func.reserve_vregs(5)
        assert func.new_vreg().index == 5

    def test_parent_map_covers_all_but_entry(self, module):
        func = module.function("f")
        parents = func.parent_map()
        regions = list(func.walk_regions())
        assert func.entry not in parents
        for region in regions:
            if region is not func.entry:
                assert region in parents
                parent, index = parents[region]
                assert 0 <= index < len(parent.items)

    def test_parent_map_predicate_children_share_index(self, module):
        func = module.function("f")
        parents = func.parent_map()
        for region in func.walk_regions():
            for index, item in enumerate(region.items):
                if isinstance(item, Predicate):
                    for sub in item.regions():
                        assert parents[sub] == (region, index)

    def test_instr_locations_complete(self, module):
        func = module.function("f")
        locations = func.instr_locations()
        for instr in func.walk_instrs():
            assert id(instr) in locations
            region, index = locations[id(instr)]
            item = region.items[index]
            assert item is instr or (
                isinstance(item, Predicate) and item.branch is instr
            )

    def test_param_info(self, module):
        func = module.function("f")
        assert [p.name for p in func.params] == ["a", "b"]
        assert all(isinstance(p, ParamInfo) for p in func.params)
