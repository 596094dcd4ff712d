"""Disjoint-path primitives and strong arc-connectivity.

Everything here reduces to unit-capacity max-flow with breadth-first
augmenting paths.  Vertex-disjoint variants split each vertex v into
(v, in) and (v, out) joined by a unit-capacity internal arc; the
arc-disjoint connectivity computation keeps plain unit arc capacities.
Augmenting paths always prefer lower vertex ids, so the returned paths
and cuts are deterministic functions of the input.

Every public routine re-verifies its own answer before returning
(paths are pairwise internally disjoint, cuts really disconnect); the
check is cheap at the scales this package targets and turns silent
corruption into a loud failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Digraph, Path, bfs_levels
from .errors import ArcPresent, EmptyGraph, SameVertex, VertexInSet


@dataclass(frozen=True)
class PathsOrCut:
    """Either k internally disjoint u-v dipaths or a small separator."""

    paths: tuple[Path, ...] | None
    cut: frozenset[int] | None

    @property
    def found(self) -> bool:
        return self.paths is not None


@dataclass(frozen=True)
class FanOrCut:
    """Either k fan paths from v into A (sharing only v) or a separator."""

    fan: tuple[Path, ...] | None
    cut: frozenset[int] | None

    @property
    def found(self) -> bool:
        return self.fan is not None


# ---------------------------------------------------------------------------
# generic unit-capacity flow network
# ---------------------------------------------------------------------------

class _UnitFlow:
    """Unit-capacity network over hashable nodes with BFS augmentation."""

    def __init__(self):
        self.adj: dict[object, list[object]] = {}
        self.cap: dict[tuple[object, object], int] = {}
        self.orig: dict[tuple[object, object], int] = {}

    def add_arc(self, u, v) -> None:
        if (u, v) in self.orig:
            return
        if (u, v) not in self.cap:
            self.adj.setdefault(u, []).append(v)
            self.adj.setdefault(v, []).append(u)
            self.cap[(u, v)] = 0
            self.cap.setdefault((v, u), 0)
        self.cap[(u, v)] += 1
        self.orig[(u, v)] = self.cap[(u, v)]

    def freeze(self) -> None:
        for u in self.adj:
            self.adj[u].sort(key=_node_key)

    def augment(self, s, t) -> bool:
        """One BFS augmenting path; returns False when none exists."""
        parent = {s: None}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.adj.get(u, ()):
                    if v in parent or self.cap[(u, v)] <= 0:
                        continue
                    parent[v] = u
                    if v == t:
                        node = t
                        while parent[node] is not None:
                            prev = parent[node]
                            self.cap[(prev, node)] -= 1
                            self.cap[(node, prev)] += 1
                            node = prev
                        return True
                    nxt.append(v)
            frontier = nxt
        return False

    def max_flow(self, s, t, limit: int) -> int:
        sent = 0
        while sent < limit and self.augment(s, t):
            sent += 1
        return sent

    def residual_reachable(self, s) -> set:
        seen = {s}
        frontier = [s]
        while frontier:
            u = frontier.pop()
            for v in self.adj.get(u, ()):
                if v not in seen and self.cap[(u, v)] > 0:
                    seen.add(v)
                    frontier.append(v)
        return seen

    def flow(self, u, v) -> int:
        """Net units carried by the original arc (u, v); 0 if absent."""
        if (u, v) not in self.orig:
            return 0
        return self.orig[(u, v)] - self.cap[(u, v)]


def _node_key(node) -> tuple:
    if isinstance(node, tuple):
        return tuple(_node_key(x) for x in node)
    if isinstance(node, int):
        return (0, node)
    return (1, str(node))


def _split_network(d: Digraph, inner_uncapped: set[int]) -> _UnitFlow:
    """Vertex-split copy of d; vertices in ``inner_uncapped`` keep capacity n."""
    net = _UnitFlow()
    for v in d.vertices():
        net.add_arc(("in", v), ("out", v))
        if v in inner_uncapped:
            key = (("in", v), ("out", v))
            net.cap[key] = net.orig[key] = d.n
    # graph arcs get capacity n so that every finite cut consists of
    # unit internal arcs only, i.e. corresponds to a vertex set
    for u, v in d.arcs():
        net.add_arc(("out", u), ("in", v))
        key = (("out", u), ("in", v))
        net.cap[key] = net.orig[key] = d.n
    net.freeze()
    return net


def _decompose_paths(net: _UnitFlow, s, t, k: int) -> list[list]:
    """Split a k-unit flow into k node sequences from s to t.

    ``net`` must be frozen, so each step takes the lowest node by
    ``_node_key`` that still carries flow.
    """
    remaining: dict[tuple[object, object], int] = {}
    for arc in net.orig:
        f = net.flow(*arc)
        if f > 0:
            remaining[arc] = f
    paths = []
    for _ in range(k):
        seq = [s]
        while (u := seq[-1]) != t:
            step = None
            for v in net.adj.get(u, ()):
                if remaining.get((u, v), 0) > 0:
                    step = v
                    break
            assert step is not None, "flow decomposition lost a unit"
            remaining[(u, step)] -= 1
            seq.append(step)
        paths.append(seq)
    return paths


def _collapse(seq: list) -> Path:
    """Project a split-network node sequence back to graph vertices."""
    out: list[int] = []
    for node in seq:
        v = node[1]
        if not out or out[-1] != v:
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def vertex_disjoint_paths(d: Digraph, u: int, v: int, k: int) -> PathsOrCut:
    """k internally vertex-disjoint u-v dipaths, or a cut of size < k.

    Requires u != v and (u, v) not an arc, so that a finite cut always
    exists when the paths do not.
    """
    if u == v:
        raise SameVertex(f"u == v == {u}")
    if d.has_arc(u, v):
        raise ArcPresent(f"arc ({u}, {v}) present; no finite separator exists")
    if k < 1:
        raise ValueError("k must be >= 1")

    net = _split_network(d, inner_uncapped={u, v})
    sent = net.max_flow(("out", u), ("in", v), k)
    if sent >= k:
        raw = _decompose_paths(net, ("out", u), ("in", v), k)
        paths = tuple(_collapse(seq) for seq in raw)
        _assert_internally_disjoint(d, paths, u, v)
        return PathsOrCut(paths=paths, cut=None)

    reach = net.residual_reachable(("out", u))
    cut = frozenset(
        w for w in d.vertices() if ("in", w) in reach and ("out", w) not in reach
    )
    assert len(cut) == sent < k
    _assert_cut_separates(d, cut, u, v)
    return PathsOrCut(paths=None, cut=cut)


def fan_to_set(d: Digraph, v: int, targets, k: int) -> FanOrCut:
    """k dipaths from v into ``targets`` sharing only v, or a cut.

    Realised by adding an artificial sink behind the target set and
    asking for vertex-disjoint paths to it; each flow path is clipped at
    its first target vertex.
    """
    a = frozenset(targets)
    if v in a:
        raise VertexInSet(f"apex {v} lies in the target set")
    if not a:
        raise ValueError("target set must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    sink = ("aux", -1)
    net = _split_network(d, inner_uncapped={v})
    for y in a:
        net.add_arc(("out", y), sink)
        key = (("out", y), sink)
        net.cap[key] = net.orig[key] = d.n
    net.freeze()
    sent = net.max_flow(("out", v), sink, k)
    if sent >= k:
        raw = _decompose_paths(net, ("out", v), sink, k)
        fan = []
        for seq in raw:
            path = _collapse(seq[:-1])
            stop = next(i for i, w in enumerate(path) if w in a)
            fan.append(path[: stop + 1])
        fan_t = tuple(fan)
        _assert_fan(d, fan_t, v, a)
        return FanOrCut(fan=fan_t, cut=None)

    reach = net.residual_reachable(("out", v))
    cut = frozenset(
        w for w in d.vertices() if ("in", w) in reach and ("out", w) not in reach
    )
    assert len(cut) == sent < k and v not in cut
    _assert_fan_cut(d, cut, v, a)
    return FanOrCut(fan=None, cut=cut)


def strong_arc_connectivity(d: Digraph) -> int:
    """Minimum number of arcs whose removal destroys strong connectivity.

    Computed as the minimum over all t of the max arc-disjoint flow
    between vertex 0 and t in both directions; a global minimum cut
    separates 0 from some vertex on one side or the other, so a fixed
    root is enough.  Returns 0 when the graph is not strongly connected.
    """
    if d.n < 2:
        raise EmptyGraph("arc connectivity needs at least two vertices")
    best = d.m + 1
    for t in range(1, d.n):
        for s, goal in ((0, t), (t, 0)):
            net = _UnitFlow()
            for arc in d.arcs():
                net.add_arc(*arc)
            net.freeze()
            best = min(best, net.max_flow(s, goal, best))
            if best == 0:
                return 0
    return best


# ---------------------------------------------------------------------------
# self-checks
# ---------------------------------------------------------------------------

def _assert_internally_disjoint(d: Digraph, paths, u: int, v: int) -> None:
    seen: set[int] = set()
    for p in paths:
        assert p[0] == u and p[-1] == v and len(p) >= 2
        assert all(d.has_arc(p[i], p[i + 1]) for i in range(len(p) - 1))
        inner = set(p[1:-1])
        assert len(inner) == len(p) - 2
        assert not (inner & seen), "paths share an internal vertex"
        seen |= inner


def _assert_cut_separates(d: Digraph, cut, u: int, v: int) -> None:
    assert u not in cut and v not in cut
    dist, _ = bfs_levels(d, u, avoid=cut)
    assert v not in dist, "claimed cut does not separate"


def _assert_fan(d: Digraph, fan, v: int, a) -> None:
    seen: set[int] = set()
    for p in fan:
        assert p[0] == v and p[-1] in a
        assert all(w not in a for w in p[:-1])
        assert all(d.has_arc(p[i], p[i + 1]) for i in range(len(p) - 1))
        tail = set(p[1:])
        assert not (tail & seen), "fan paths meet outside the apex"
        seen |= tail


def _assert_fan_cut(d: Digraph, cut, v: int, a) -> None:
    assert v not in cut
    dist, _ = bfs_levels(d, v, avoid=cut)
    assert not (set(dist) & (a - cut)), "claimed cut does not separate fan"
