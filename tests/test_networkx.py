"""Differential checks of the traversal and flow layers against networkx.

networkx is an optional test dependency; without it this module skips.
"""

import random

import pytest

from digraphsub.core import INFINITE, bfs_levels, directed_girth, strong_components
from digraphsub.menger import fan_to_set, strong_arc_connectivity, vertex_disjoint_paths

from .conftest import rand_digraph

nx = pytest.importorskip("networkx")


def _nx_graph(d):
    g = nx.DiGraph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from(d.arcs())
    return g


def _hosts(seed, count, n_max):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, rand_digraph(rng, rng.randrange(1, n_max + 1), rng.uniform(0.05, 0.5))


def _as_sets(comps):
    return sorted(sorted(c) for c in comps)


def test_strong_components_on_digraph():
    for _, d in _hosts(1, 200, 12):
        assert _as_sets(strong_components(d)) == _as_sets(nx.strongly_connected_components(_nx_graph(d)))


def test_bfs_distances_avoiding_a_set():
    for rng, d in _hosts(3, 300, 12):
        source = rng.randrange(d.n)
        avoid = {v for v in range(d.n) if v != source and rng.random() < 0.25}
        g = _nx_graph(d)
        g.remove_nodes_from(avoid)
        dist, parent = bfs_levels(d, source, avoid=avoid)
        assert dist == nx.single_source_shortest_path_length(g, source)
        assert all(dist[parent[v]] + 1 == dist[v] and d.has_arc(parent[v], v) for v in parent)


def test_directed_girth_against_simple_cycles():
    for _, d in _hosts(4, 200, 8):
        lengths = [len(c) for c in nx.simple_cycles(_nx_graph(d))]
        assert directed_girth(d) == (min(lengths) if lengths else INFINITE)


def test_disjoint_paths_against_local_node_connectivity():
    checked = 0
    for rng, d in _hosts(5, 300, 10):
        if d.n < 2:
            continue
        u, v = rng.sample(range(d.n), 2)
        if d.has_arc(u, v):
            continue
        kappa = nx.algorithms.connectivity.local_node_connectivity(_nx_graph(d), u, v)
        for k in (1, 2, 3):
            res = vertex_disjoint_paths(d, u, v, k)
            assert res.found == (kappa >= k)
            if not res.found:
                assert len(res.cut) == kappa
        checked += 1
    assert checked > 100


def test_fan_against_connectivity_to_an_auxiliary_sink():
    checked = 0
    for rng, d in _hosts(6, 300, 10):
        if d.n < 2:
            continue
        v = rng.randrange(d.n)
        targets = set(rng.sample([x for x in range(d.n) if x != v], rng.randrange(1, min(4, d.n))))
        g = _nx_graph(d)
        g.add_edges_from((y, "sink") for y in targets)
        kappa = nx.algorithms.connectivity.local_node_connectivity(g, v, "sink")
        for k in (1, 2, 3):
            res = fan_to_set(d, v, targets, k)
            assert res.found == (kappa >= k)
            if not res.found:
                assert len(res.cut) == kappa
        checked += 1
    assert checked > 100


def test_strong_arc_connectivity_against_edge_connectivity():
    for _, d in _hosts(7, 200, 9):
        if d.n >= 2:
            assert strong_arc_connectivity(d) == nx.edge_connectivity(_nx_graph(d))
