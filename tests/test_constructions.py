import pytest

from digraphsub.constructions import (
    BlockProperty,
    BuildingBlock,
    cycle_block_for_star,
    join_no_k4,
    join_no_s4,
    load_building_block,
    odd_cycle_block,
)
from digraphsub.core import (
    bioriented_clique,
    bioriented_star,
    directed_cycle,
    write_edge_list,
)
from digraphsub.errors import ParseError, PropertyMismatch
from digraphsub.menger import strong_arc_connectivity
from digraphsub.oracle import SearchBudget, contains_subdivision


class TestBuildingBlocks:
    def test_odd_cycle_verified(self):
        block = odd_cycle_block(5)
        assert block.k == 1

    def test_digon_rejected(self):
        with pytest.raises(PropertyMismatch):
            BuildingBlock.wrap(bioriented_clique(2), BlockProperty.NO_EVEN_DICYCLE)

    def test_even_cycle_rejected(self):
        with pytest.raises(PropertyMismatch):
            odd_cycle_block(4)

    def test_star_block(self):
        block = cycle_block_for_star(4)
        assert block.claimed is BlockProperty.NO_S3_SUBDIVISION

    def test_file_round_trip(self):
        text = write_edge_list(directed_cycle(5), comments=["property: no-even-dicycle"])
        block = load_building_block(text)
        assert block.claimed is BlockProperty.NO_EVEN_DICYCLE
        assert block.graph == directed_cycle(5)

    def test_file_without_tag(self):
        with pytest.raises(ParseError):
            load_building_block(write_edge_list(directed_cycle(5)))


class TestJoinNoK4:
    def test_layout_and_size(self):
        host, layout = join_no_k4(odd_cycle_block(5))
        assert host.n == 11
        assert layout.groups["apex"] == (10,)
        assert len(layout.groups["A"]) == len(layout.groups["B"]) == 5

    def test_arc_connectivity(self):
        host, _ = join_no_k4(odd_cycle_block(5))
        assert strong_arc_connectivity(host) >= 1

    def test_no_k4_subdivision(self):
        host, _ = join_no_k4(odd_cycle_block(5))
        assert contains_subdivision(host, bioriented_clique(4), SearchBudget(10**7)) is None

    def test_wrong_property(self):
        with pytest.raises(PropertyMismatch):
            join_no_k4(cycle_block_for_star(4))

    def test_degrees_match_block_level(self):
        host, layout = join_no_k4(odd_cycle_block(5))
        base = [v for vs in (layout.groups["A"], layout.groups["B"]) for v in vs]
        assert min(host.out_degree(v) for v in base) >= 1 + 1  # block level + apex


class TestJoinNoS4:
    def test_layout_and_size(self):
        host, layout = join_no_s4(cycle_block_for_star(4))
        assert host.n == 18
        assert layout.groups["u"] == (16,) and layout.groups["v"] == (17,)

    def test_arc_connectivity(self):
        host, _ = join_no_s4(cycle_block_for_star(4))
        assert strong_arc_connectivity(host) >= 1

    def test_no_s4_subdivision(self):
        host, _ = join_no_s4(cycle_block_for_star(4))
        assert contains_subdivision(host, bioriented_star(4), SearchBudget(10**7)) is None

    def test_intermediate_degrees(self):
        # inside one side, every vertex has the block's level in and out
        host, layout = join_no_s4(cycle_block_for_star(4))
        u = layout.groups["u"][0]
        v = layout.groups["v"][0]
        for x in layout.groups["X"]:
            outs = [w for w in host.out_nbrs(x) if w not in (u, v)]
            ins = [w for w in host.in_nbrs(x) if w not in (u, v)]
            assert len(outs) >= 1 and len(ins) >= 1

    def test_wrong_property(self):
        with pytest.raises(PropertyMismatch):
            join_no_s4(odd_cycle_block(5))


# input errors no other test reaches: each block file must raise ParseError
BAD_BLOCK_FILES = [
    pytest.param(write_edge_list(directed_cycle(5), comments=["property: no-such-property"]),
                 id="unknown-property"),
]


@pytest.mark.parametrize("text", BAD_BLOCK_FILES)
def test_bad_block_file_is_a_parse_error(text):
    with pytest.raises(ParseError):
        load_building_block(text)
