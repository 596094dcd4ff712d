import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphsub import core
from digraphsub.cab import embed_gadget_i_or_ii, embed_gadget_iii
from digraphsub.core import (
    Digraph,
    bfs_levels,
    bfs_path,
    bioriented_clique,
    bioriented_path,
    bioriented_star,
    build_digraph,
    directed_cycle,
    directed_girth,
    directed_path,
    has_digon,
    k3_minus_e,
    min_out_degree,
    path_to,
    pattern_cab,
    pattern_two_block,
    read_edge_list,
    strong_components,
    to_dot,
    transitive_tournament,
    write_edge_list,
)
from digraphsub.errors import (
    BadParams,
    BudgetExceeded,
    DegeneratePattern,
    EmptyGraph,
    LoopArc,
    ParseError,
    VertexOutOfRange,
)
from digraphsub.oracle import SearchBudget
from digraphsub.synthetic import ring_of_cycle_gadgets
from digraphsub.two_block import fork

from .conftest import rand_digraph


def digraphs(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        return build_digraph(n, arcs)

    return build()


class TestBuild:
    def test_digon(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert min_out_degree(d) == 1
        assert d.m == 2

    def test_triangle_girth(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert directed_girth(d) == 3

    def test_loop_rejected(self):
        with pytest.raises(LoopArc):
            build_digraph(2, [(0, 0)])

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_digraph(2, [(0, 2)])

    @pytest.mark.parametrize("arc, error, text", [
        ((0, 0), LoopArc, "loop arc (0, 0)"),
        ((1, 1), LoopArc, "loop arc (1, 1)"),
        ((0, 2), VertexOutOfRange, "arc (0, 2) outside 0..1"),
        ((2, 0), VertexOutOfRange, "arc (2, 0) outside 0..1"),
        ((-1, 0), VertexOutOfRange, "arc (-1, 0) outside 0..1"),
        ((0, -1), VertexOutOfRange, "arc (0, -1) outside 0..1"),
        ((2, 2), VertexOutOfRange, "arc (2, 2) outside 0..1"),
        ((-1, -1), VertexOutOfRange, "arc (-1, -1) outside 0..1"),
    ])
    def test_bad_arc_errors(self, arc, error, text):
        with pytest.raises(error) as info:
            build_digraph(2, [(0, 1), arc, (1, 0)])
        assert str(info.value) == text

    def test_negative_vertex_count(self):
        with pytest.raises(BadParams, match="n >= 0 vertices, got -1"):
            build_digraph(-1, [])

    def test_duplicates_collapse(self):
        d = build_digraph(2, [(0, 1), (0, 1)])
        assert d.m == 1

    def test_empty_degree(self):
        with pytest.raises(EmptyGraph):
            min_out_degree(build_digraph(0, []))

    @given(digraphs(), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_in_rows_list_tails_ascending(self, d, data):
        # the constructor appends tails in ascending order and never sorts
        removed = data.draw(st.sets(st.sampled_from(list(d.arcs())))) if d.m else set()
        transposed = tuple(map(d.in_nbrs, d.vertices()))
        thinned = tuple(tuple(v for v in d.out_nbrs(u) if (u, v) not in removed) for u in d.vertices())
        for g in (d, Digraph(d.n, transposed), Digraph(d.n, thinned)):
            for v in g.vertices():
                assert g.in_nbrs(v) == tuple(u for u in g.vertices() if g.has_arc(u, v))


class TestDegreesAndGirth:
    def test_bivec_k4_min_out(self):
        assert min_out_degree(bioriented_clique(4)) == 3

    def test_transitive_tournament_has_sink(self):
        assert min_out_degree(transitive_tournament(4)) == 0

    def test_cab_23_has_sinks(self):
        assert min_out_degree(pattern_cab(2, 3)) == 0

    def test_girth_c5(self):
        assert directed_girth(directed_cycle(5)) == 5

    def test_girth_acyclic_infinite(self):
        assert directed_girth(transitive_tournament(4)) == math.inf

    def test_girth_digon(self):
        assert directed_girth(bioriented_clique(3)) == 2

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_girth_two_iff_digon(self, d):
        assert (directed_girth(d) == 2) == has_digon(d)


class TestStrongComponents:
    def test_cycle_single_class(self):
        assert strong_components(directed_cycle(4)) == [[0, 1, 2, 3]]

    def test_dipath_singletons(self):
        comps = strong_components(directed_path(2))
        assert sorted(comps) == [[0], [1], [2]]
        assert len(comps) == 3

    def test_two_digons(self):
        d = build_digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert sorted(strong_components(d)) == [[0, 1], [2, 3]]

    def test_reverse_topological_order(self):
        # 0 -> 1 -> 2: the sink component must come first
        comps = strong_components(directed_path(2))
        assert comps[0] == [2]

    @pytest.mark.parametrize("length", [2, 3, 5, 9])
    def test_cycle_always_one_class(self, length):
        assert len(strong_components(directed_cycle(length))) == 1

    @pytest.mark.parametrize("p", [0.03, 0.08, 0.15, 0.3, 0.6])
    def test_same_components_in_same_order_as_reference(self, p):
        # find_k3e descends into the first component emitted, so the
        # order is pinned too, not only the partition
        rng = random.Random(f"scc-{p}")
        for n in range(1, 31):
            for _ in range(3):
                d = rand_digraph(rng, n, p)
                assert strong_components(d) == _reference_components(d)

    def test_long_dipath(self):
        # a DFS 5,000 vertices deep, past the default recursion limit,
        # and 5,000 components taken off a stack that deep
        d = directed_path(4999)
        expected = [[v] for v in reversed(d.vertices())]
        assert strong_components(d) == _reference_components(d) == expected


def _reference_components(d):
    """The iterative Tarjan that strong_components ran before it kept a
    row iterator per work entry and a stack position per vertex."""
    n = d.n
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            row = d.out_nbrs(v)
            while pi < len(row):
                w = row[pi]
                pi += 1
                if index[w] < 0:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


class TestTraversalKernel:
    def test_budget_charges_once_per_expanded_vertex(self):
        d = directed_path(6)
        for k in range(5):
            with pytest.raises(BudgetExceeded) as exc:
                bfs_levels(d, 0, budget=SearchBudget(k), phase="probe")
            assert exc.value.details == {"consumed": k + 1, "phase": "probe"}
        budget = SearchBudget(7)
        dist, _ = bfs_levels(d, 0, budget=budget, phase="probe")
        assert len(dist) == 7 and budget.consumed == 7

    def test_bfs_path_budget(self):
        d = directed_path(6)
        with pytest.raises(BudgetExceeded) as exc:
            bfs_path(d, 0, {6}, budget=SearchBudget(3), phase="probe")
        assert exc.value.details["phase"] == "probe"
        budget = SearchBudget(6)
        assert bfs_path(d, 0, {6}, budget=budget, phase="probe") == tuple(range(7))
        assert budget.consumed == 6

    @given(digraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_path_to_rebuilds_bfs_path(self, d, data):
        source = data.draw(st.integers(0, d.n - 1))
        targets = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1))
        path = bfs_path(d, source, targets)
        dist, parent = bfs_levels(d, source, targets=targets)
        if path is None:
            assert not targets & set(dist)
        else:
            assert path == path_to(parent, source, path[-1])
            assert len(path) - 1 == dist[path[-1]]
            assert core.is_dipath(d, path) and not targets & set(path[:-1])

    def test_targets_stop_at_first_entered(self):
        # 0 reaches 2 and 3 at depth 1 and 4 at depth 2
        d = build_digraph(5, [(0, 3), (0, 2), (2, 4), (3, 1)])
        dist, _ = bfs_levels(d, 0, targets={3, 2, 4})
        assert list(dist) == [0, 2]
        assert bfs_path(d, 0, {3, 2}) == (0, 2)
        assert bfs_path(d, 0, {4, 1}) == (0, 2, 4)
        assert bfs_path(d, 0, {0, 1}) == (0,)
        assert bfs_path(d, 0, {1}, avoid={3}) is None

    def test_signature_is_pinned(self):
        # the oracle's reachability checks and path search run on its own
        # masks, so the breadth-first loop keeps no mode, flag or special
        # case for them
        params = [(p.name, p.kind.name, p.default) for p in inspect.signature(bfs_levels).parameters.values()]
        empty = inspect.Parameter.empty
        assert params == [
            ("host", "POSITIONAL_OR_KEYWORD", empty),
            ("source", "POSITIONAL_OR_KEYWORD", empty),
            ("max_depth", "POSITIONAL_OR_KEYWORD", math.inf),
            ("avoid", "POSITIONAL_OR_KEYWORD", ()),
            ("targets", "KEYWORD_ONLY", ()),
            ("budget", "KEYWORD_ONLY", None),
            ("phase", "KEYWORD_ONLY", None),
        ]


class TestGenerators:
    def test_bivec_k3_arcs(self):
        assert bioriented_clique(3).m == 6

    def test_k3e_arcs(self):
        d = k3_minus_e()
        assert d.m == 5
        assert not d.has_arc(0, 2)

    def test_star_arcs(self):
        d = bioriented_star(3)
        assert d.m == 6
        assert d.out_degree(0) == 3

    def test_bioriented_path(self):
        d = bioriented_path(4)
        assert d.n == 4 and d.m == 6

    @pytest.mark.parametrize("make,size", [
        (bioriented_clique, -1), (transitive_tournament, -2), (directed_path, -3), (bioriented_path, -2),
        (bioriented_star, -1),
        (directed_path, -1),
    ])
    def test_negative_size_is_a_parameter_error(self, make, size):
        with pytest.raises(BadParams):
            make(size)


class TestWalkEntriesCheckIds:
    # a negative id must not wrap to a real vertex under a second name,
    # nor an id past the end raise IndexError
    ENTRIES = {
        "greedy_maximal_path": lambda d, v: core.greedy_maximal_path(d, v),
        "fork": lambda d, v: fork(d, v, 1, 1),
        "embed_gadget_i_or_ii": lambda d, v: embed_gadget_i_or_ii(d, v, 1, 1, 4),
        "embed_gadget_iii": lambda d, v: embed_gadget_iii(d, v, 1, 2, 2),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("shift", [-1, "-n", "n"])
    def test_id_outside_the_graph(self, entry, shift):
        d = ring_of_cycle_gadgets(8)
        v = {"-n": -d.n, "n": d.n}.get(shift, shift)
        with pytest.raises(VertexOutOfRange, match=f"vertex {v} outside 0..{d.n - 1}"):
            self.ENTRIES[entry](d, v)


def _isomorphic(a: Digraph, b: Digraph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    arcs_b = set(b.arcs())
    for perm in itertools.permutations(range(a.n)):
        if all((perm[u], perm[v]) in arcs_b for u, v in a.arcs()):
            return True
    return False


class TestPatternCab:
    def test_vertex_count(self):
        assert pattern_cab(2, 3).n == 12

    def test_degenerate(self):
        with pytest.raises(DegeneratePattern):
            pattern_cab(1, 1)

    def test_cab_21_is_c4_orientation(self):
        got = pattern_cab(2, 1)
        # orientation of C4 with two sources and two sinks
        expected = build_digraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert _isomorphic(got, expected)

    @pytest.mark.parametrize("a,b", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 1)])
    def test_source_sink_counts(self, a, b):
        d = pattern_cab(a, b)
        assert d.n == 2 * a * b
        sources = [v for v in d.vertices() if d.out_degree(v) == 2]
        sinks = [v for v in d.vertices() if d.in_degree(v) == 2]
        assert len(sources) == a and sources == list(range(a))
        assert len(sinks) == a and sinks == list(range(a, 2 * a))

    def test_cab_1b_is_two_block(self):
        assert _isomorphic(pattern_cab(1, 2), pattern_two_block(2, 2))


class TestPatternTwoBlock:
    def test_32(self):
        d = pattern_two_block(3, 2)
        assert d.n == 5
        assert sum(1 for v in d.vertices() if d.out_degree(v) == 2) == 1
        assert sum(1 for v in d.vertices() if d.in_degree(v) == 2) == 1

    def test_k1_shape(self):
        d = pattern_two_block(4, 1)
        assert d.n == 5
        assert d.has_arc(0, 1)
        assert directed_girth(d) == math.inf

    def test_degenerate(self):
        with pytest.raises(DegeneratePattern):
            pattern_two_block(1, 1)


class TestIO:
    def test_round_trip(self):
        d = pattern_cab(2, 2)
        assert read_edge_list(write_edge_list(d)) == d

    def test_comments_skipped(self):
        d = read_edge_list("# property: no-even-dicycle\n2 2\n0 1\n1 0\n")
        assert d == build_digraph(2, [(0, 1), (1, 0)])
        assert core.file_comments("# property: x\n2 0\n") == ["property: x"]

    def test_bad_header(self):
        with pytest.raises(ParseError):
            read_edge_list("nonsense\n")

    def test_wrong_arc_count(self):
        with pytest.raises(ParseError):
            read_edge_list("2 2\n0 1\n")

    def test_negative_vertex_count(self):
        with pytest.raises(ParseError):
            read_edge_list("-1 0")

    def test_vertex_count_over_cap_fails_before_allocating(self, monkeypatch):
        built = []
        monkeypatch.setattr(core, "build_digraph", lambda n, arcs: built.append(n))
        with pytest.raises(ParseError, match="MAX_VERTICES"):
            read_edge_list(f"{core.MAX_VERTICES + 1} 0")
        assert built == []
        read_edge_list(f"{core.MAX_VERTICES} 0")
        assert built == [core.MAX_VERTICES]

    def test_dot_export(self):
        text = to_dot(build_digraph(2, [(0, 1)]))
        assert "0 -> 1;" in text


# input errors no other test reaches: each call must raise its named error
INPUT_ERRORS = [
    pytest.param(lambda: read_edge_list("# only a comment\n"), ParseError, id="empty-input"),
    pytest.param(lambda: read_edge_list("2 x\n"), ParseError, id="non-integer-header"),
    pytest.param(lambda: read_edge_list("2 1\n0 1 1\n"), ParseError, id="arc-line-not-u-v"),
    pytest.param(lambda: read_edge_list("2 1\n0 y\n"), ParseError, id="non-integer-arc"),
    pytest.param(lambda: read_edge_list("2 1\n1 1\n"), ParseError, id="loop-arc"),
    pytest.param(lambda: read_edge_list("2 1\n0 2\n"), ParseError, id="arc-out-of-range"),
    pytest.param(lambda: directed_cycle(1), DegeneratePattern, id="directed-cycle-of-one"),
    pytest.param(lambda: pattern_cab(0, 1), DegeneratePattern, id="cab-without-sources"),
    pytest.param(lambda: pattern_two_block(1, 2), DegeneratePattern, id="two-block-out-of-order"),
]


@pytest.mark.parametrize("call,error", INPUT_ERRORS)
def test_input_error(call, error):
    with pytest.raises(error):
        call()
