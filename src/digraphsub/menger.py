"""Disjoint-path primitives and strong arc-connectivity.

Everything here reduces to unit-capacity max-flow with breadth-first
augmenting paths (Even & Tarjan 1975).  Vertex-disjoint variants run on
the vertex-split network: v becomes ``in_v = v`` and ``out_v = n+v``
joined by an internal arc of capacity 1, and arc (u, x) becomes
``out_u -> in_x`` of capacity n, so every finite cut is a vertex set.
A flow runs from one node to a goal set and stops at the first goal it
reaches, so a fan needs no sink: its goals are the targets' out-nodes.

The network is never built.  A query keeps only its flow: which
vertices' internal arcs carry a unit, which graph arcs carry one, and
the tail of the carrying arc into each such vertex.  Residual
successors come straight from the host's sorted rows:

- from ``out_u``: ``in_x`` for every out-neighbour x (a graph arc
  carries at most one unit, so it never fills), and ``in_u`` at its
  sorted place when u's internal arc carries a unit;
- from ``in_x``: ``out_x`` when x carries nothing, else only ``out_p``
  for the tail p of the unit entering x.  A goal is never expanded.

Strong arc-connectivity runs on the vertex ids with unit arcs.  Every
node's successors ascend, so augmenting paths prefer lower node ids and
the returned paths and cuts are deterministic functions of the input.

Every public routine re-verifies its own answer before returning
(paths are pairwise internally disjoint, cuts really disconnect) and
raises ``InvariantViolation`` when the check fails; it is cheap at the
scales this package targets and turns silent corruption into a loud
failure.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import Digraph, Path, _check_in_range, bfs_levels
from .errors import (
    ArcPresent,
    BadParams,
    EmptyGraph,
    InvariantViolation,
    SameVertex,
    VertexInSet,
)


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
# unit-capacity flows read straight off the host's rows
# ---------------------------------------------------------------------------

class _Flow:
    """One query's flow, grown by BFS augmenting paths.

    A subclass sets ``size``, its number of nodes, and gives
    ``successors(u)``, the residual successors of node u in ascending
    id order, and ``push(u, v)``, which sends one unit along the
    residual arc u -> v.  ``came`` keeps the marks of the last search:
    after one that fails, ``came[v] >= 0`` holds exactly for the nodes
    a residual path from s reaches, the source side of a minimum cut.
    """

    __slots__ = ("came",)

    def augment(self, s: int, goals) -> bool:
        """One BFS augmenting path from s to the first node of ``goals``
        it reaches; returns False when none exists."""
        successors = self.successors
        self.came = came = [-1] * self.size  # BFS parent of each reached node
        came[s] = s
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in successors(u):
                    if came[v] >= 0:
                        continue
                    came[v] = u
                    if v in goals:
                        while v != s:
                            u = came[v]
                            self.push(u, v)
                            v = u
                        return True
                    nxt.append(v)
            frontier = nxt
        return False

    def max_flow(self, s: int, goals, limit: int) -> int:
        sent = 0
        while sent < limit and self.augment(s, goals):
            sent += 1
        return sent


class _SplitFlow(_Flow):
    """A flow on d's vertex-split network (see the module docstring):
    ``carries[v]`` flags v's internal arc, ``arcs`` holds the graph arcs
    that carry a unit, and ``tail[x]`` is the tail of the one entering a
    carrying x."""

    __slots__ = ("d", "n", "size", "carries", "arcs", "tail")

    def __init__(self, d: Digraph):
        self.d = d
        self.n = n = d.n
        self.size = 2 * n
        self.carries = bytearray(n)
        self.arcs: set[tuple[int, int]] = set()
        self.tail: dict[int, int] = {}

    def successors(self, u: int):
        n = self.n
        if u < n:
            return (n + self.tail[u],) if self.carries[u] else (n + u,)
        u -= n
        row = self.d.out_nbrs(u)
        if not self.carries[u]:
            return row
        k = bisect_left(row, u)
        return (*row[:k], u, *row[k:])

    def push(self, u: int, v: int) -> None:
        n = self.n
        if u < n:
            if v == n + u:
                self.carries[u] = 1
            else:  # back along the arc (p, u) that entered u
                self.arcs.remove((v - n, u))
        elif u - n == v:  # back along v's internal arc
            self.carries[v] = 0
        else:
            self.arcs.add((u - n, v))
            self.tail[v] = u - n


class _ArcFlow(_Flow):
    """A flow on d itself with unit arcs.  Arc (u, w) stays usable while
    ``has_arc(u, w)`` exceeds the net flow from u to w; ``rows[v]``
    lists v's out- and in-neighbours together, ascending."""

    __slots__ = ("d", "rows", "size", "net")

    def __init__(self, d: Digraph, rows: list[list[int]]):
        self.d = d
        self.rows = rows
        self.size = d.n
        self.net: dict[tuple[int, int], int] = {}

    def successors(self, u: int):
        has_arc, net = self.d.has_arc, self.net
        return [w for w in self.rows[u] if has_arc(u, w) > net.get((u, w), 0)]

    def push(self, u: int, w: int) -> None:
        net = self.net
        net[u, w] = net.get((u, w), 0) + 1
        net[w, u] = net.get((w, u), 0) - 1


def _decompose_paths(flow: _SplitFlow, s: int, goals, k: int) -> list[list[int]]:
    """Split a k-unit flow into k node sequences from s into ``goals``.

    From ``out_u`` a step takes the lowest out-neighbour whose arc
    carries a unit, from ``in_x`` the internal arc to ``out_x``.
    Consumes the flow.
    """
    n, arcs, carries = flow.n, flow.arcs, flow.carries
    paths = []
    for _ in range(k):
        seq = [s]
        while (u := seq[-1]) not in goals:
            if u < n:
                _check(carries[u], "flow decomposition lost a unit")
                carries[u] = 0
                seq.append(n + u)
            else:
                u -= n
                x = next((x for x in flow.d.out_nbrs(u) if (u, x) in arcs), None)
                _check(x is not None, "flow decomposition lost a unit")
                arcs.remove((u, x))
                seq.append(x)
        paths.append(seq)
    return paths


def _collapse(seq: list[int], n: int) -> Path:
    """Graph vertices of a split-network sequence ``out_u, in_x, out_x,
    ..., in_y[, out_y]``: u, then every in-node, whose id is its vertex."""
    return (seq[0] - n, *seq[1::2])


def _paths_or_cut(d: Digraph, source: int, goals, k: int):
    """Split-network flow from ``source`` into ``goals``: ``(sequences,
    None)`` with k node sequences when k units pass, else ``(None, cut)``
    with the vertices whose internal arcs leave the last, failed
    search's reach."""
    flow = _SplitFlow(d)
    sent = flow.max_flow(source, goals, k)
    if sent >= k:
        return _decompose_paths(flow, source, goals, k), None
    n, came = d.n, flow.came
    cut = frozenset(w for w in range(n) if came[w] >= 0 > came[n + w])
    _check(len(cut) == sent, "cut size differs from the flow value")
    return None, cut


def _disjoint_cycle_flow(d: Digraph, w: int, limit: int) -> int:
    """Max number of directed cycles through w pairwise meeting only at w,
    capped at ``limit``: flow from out_w to in_w (the oracle's
    disjoint-cycle filter)."""
    return _SplitFlow(d).max_flow(d.n + w, {w}, limit)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def vertex_disjoint_paths(d: Digraph, u: int, v: int, k: int) -> PathsOrCut:
    """k internally vertex-disjoint u-v dipaths, or a cut of size < k.

    Requires u != v and (u, v) not an arc, so that a finite cut always
    exists when the paths do not.
    """
    _check_in_range(d, (u, v))
    if u == v:
        raise SameVertex(f"u == v == {u}")
    if d.has_arc(u, v):
        raise ArcPresent(f"arc ({u}, {v}) present; no finite separator exists")
    if k < 1:
        raise BadParams("k must be >= 1")

    n = d.n
    raw, cut = _paths_or_cut(d, n + u, {v}, k)
    if raw is None:
        _check(v not in cut, "cut contains the goal")
        _check_cut(d, cut, u, {v})
        return PathsOrCut(paths=None, cut=cut)
    paths = tuple(_collapse(seq, n) for seq in raw)
    _check_internally_disjoint(d, paths, u, v)
    return PathsOrCut(paths=paths, cut=None)


def fan_to_set(d: Digraph, v: int, targets, k: int) -> FanOrCut:
    """k dipaths from v into ``targets`` sharing only v, or a cut.

    Realised as vertex-disjoint paths from v to the targets' out-nodes;
    a flow stops at the first target it reaches, so every path meets
    the target set at its end only.
    """
    a = frozenset(targets)
    _check_in_range(d, (v, *a))
    if v in a:
        raise VertexInSet(f"apex {v} lies in the target set")
    if not a:
        raise BadParams("target set must be non-empty")
    if k < 1:
        raise BadParams("k must be >= 1")

    n = d.n
    raw, cut = _paths_or_cut(d, n + v, {n + y for y in a}, k)
    if raw is None:
        _check_cut(d, cut, v, a)
        return FanOrCut(fan=None, cut=cut)
    fan = tuple(_collapse(seq, n) for seq in raw)
    _check_fan(d, fan, v, a)
    return FanOrCut(fan=fan, cut=None)


def strong_arc_connectivity(d: Digraph) -> int:
    """Minimum number of arcs whose removal destroys strong connectivity.

    Computed as the minimum over all t of the max arc-disjoint flow
    between vertex 0 and t in both directions; a global minimum cut
    separates 0 from some vertex on one side or the other, so a fixed
    root is enough.  Returns 0 when the graph is not strongly connected.
    """
    if d.n < 2:
        raise EmptyGraph("arc connectivity needs at least two vertices")
    rows = [sorted({*d.out_nbrs(v), *d.in_nbrs(v)}) for v in d.vertices()]
    best = d.m + 1
    for t in range(1, d.n):
        for s, goal in ((0, t), (t, 0)):
            best = min(best, _ArcFlow(d, rows).max_flow(s, {goal}, best))
            if best == 0:
                return 0
    return best


# ---------------------------------------------------------------------------
# self-checks (explicit raises, so ``python -O`` keeps them)
# ---------------------------------------------------------------------------

def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _check_internally_disjoint(d: Digraph, paths, u: int, v: int) -> None:
    seen: set[int] = set()
    for p in paths:
        _check(p[0] == u and p[-1] == v and len(p) >= 2, "path has wrong ends")
        _check(all(map(d.has_arc, p, p[1:])), "path uses a non-arc")
        inner = set(p[1:-1])
        _check(len(inner) == len(p) - 2, "path repeats a vertex")
        _check(inner.isdisjoint(seen), "paths share an internal vertex")
        seen |= inner


def _check_fan(d: Digraph, fan, v: int, a) -> None:
    seen: set[int] = set()
    for p in fan:
        _check(p[0] == v and p[-1] in a, "fan path has wrong ends")
        _check(a.isdisjoint(p[:-1]), "fan path crosses the target set early")
        _check(all(map(d.has_arc, p, p[1:])), "fan path uses a non-arc")
        tail = set(p[1:])
        _check(tail.isdisjoint(seen), "fan paths meet outside the apex")
        seen |= tail


def _check_cut(d: Digraph, cut, source: int, goals) -> None:
    _check(source not in cut, "cut contains the source")
    dist, _ = bfs_levels(d, source, avoid=cut)
    _check(not (set(dist) & (goals - cut)), "claimed cut does not separate")
