"""Disjoint-path primitives and strong arc-connectivity.

Everything here reduces to unit-capacity max-flow with breadth-first
augmenting paths (Even & Tarjan 1975) on a residual network whose nodes
are dense integers.  Vertex-disjoint variants split each vertex v into
``in_v = v`` and ``out_v = n+v`` joined by a unit-capacity internal
arc; the arc-disjoint connectivity computation keeps plain unit arc
capacities on the vertex ids.  A flow runs from one node to a goal set
and stops at the first goal it reaches, so a fan needs no artificial
sink: its goals are the targets' out-nodes.  Augmenting paths always
prefer lower node ids, so the returned paths and cuts are deterministic
functions of the input.

A host's split network is built once and never written after that:
every query on it gets its own residual capacities and shares the rows.
The module holds the network of the host queried last, so switching
hosts rebuilds; threads may share it, and the answers never depend on
which network a query got.

Every public routine re-verifies its own answer before returning
(paths are pairwise internally disjoint, cuts really disconnect) and
raises ``InvariantViolation`` when the check fails; it is cheap at the
scales this package targets and turns silent corruption into a loud
failure.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import Digraph, Path, bfs_levels
from .errors import (
    ArcPresent,
    EmptyGraph,
    InvariantViolation,
    SameVertex,
    VertexInSet,
    VertexOutOfRange,
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
# unit-capacity flow network on dense integer node ids
# ---------------------------------------------------------------------------

class _UnitFlow:
    """Residual network on nodes ``0..N-1`` with BFS augmentation.

    Row u is four parallel lists, ascending by neighbour id: the
    neighbour ``nbr[u][j]``, its residual capacity ``cap[u][j]``, the
    original capacity ``orig[u][j]`` (0 on a reverse entry) and
    ``rev[u][j]``, the position of u in the neighbour's row.  Scanning a
    row in order prefers lower node ids, which fixes every tie-break.
    ``nbr``, ``orig`` and ``rev`` are never written after the build;
    ``cap`` belongs to one flow, made by ``fresh``.
    """

    __slots__ = ("nbr", "cap", "orig", "rev")

    def __init__(self, nbr: list[list[int]], orig: list[list[int]], rev: list[list[int]], cap=None):
        self.nbr = nbr
        self.orig = orig
        self.rev = rev
        self.cap = cap

    def fresh(self) -> _UnitFlow:
        """A flow of its own on the same rows, carrying nothing yet."""
        return _UnitFlow(self.nbr, self.orig, self.rev, list(map(list.copy, self.orig)))

    def augment(self, s: int, goals) -> bool:
        """One BFS augmenting path from s to the first node of ``goals``
        it reaches; returns False when none exists."""
        nbr, cap = self.nbr, self.cap
        came = [-1] * len(nbr)  # BFS parent of each reached node
        slot = [-1] * len(nbr)  # its entry in that parent's row
        came[s] = s
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                caps = cap[u]
                for j, v in enumerate(nbr[u]):
                    if caps[j] <= 0 or came[v] >= 0:
                        continue
                    came[v] = u
                    slot[v] = j
                    if v in goals:
                        rev = self.rev
                        while v != s:
                            u, j = came[v], slot[v]
                            cap[u][j] -= 1
                            cap[v][rev[u][j]] += 1
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

    def residual_reachable(self, s: int) -> bytearray:
        """Flag per node: 1 when a residual path from s reaches it."""
        nbr, cap = self.nbr, self.cap
        seen = bytearray(len(nbr))
        seen[s] = 1
        frontier = [s]
        while frontier:
            u = frontier.pop()
            caps = cap[u]
            for j, v in enumerate(nbr[u]):
                if caps[j] > 0 and not seen[v]:
                    seen[v] = 1
                    frontier.append(v)
        return seen


def _split_topology(d: Digraph) -> _UnitFlow:
    """Vertex-split copy of d, without ``cap``.

    v becomes ``in_v = v`` and ``out_v = n+v`` joined by an internal arc
    of capacity 1, and arc (u, x) becomes ``out_u -> in_x`` of capacity
    n, so every finite cut consists of internal arcs only, i.e.
    corresponds to a vertex set.  One network serves every query: a
    flow never passes through its source's or its goals' internal arcs.

    Row ``out_u`` is laid out in one go; each entry's partner is
    appended to its in-row as u ascends, so every row ascends without
    sorting.  Every node id is one shared int object.
    """
    n = d.n
    ids = list(range(2 * n))
    # the in-rows now; out-rows are appended in order
    nbr = [[] for _ in range(n)]
    orig = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for u in range(n):
        o = ids[n + u]
        heads = list(d.out_nbrs(u))
        k = bisect_left(heads, u)
        heads.insert(k, u)  # the internal arc's reverse entry, in place
        nbr_o = []
        rev_o = []
        for x in heads:
            rev_o.append(len(nbr[x]))
            rev[x].append(len(nbr_o))
            nbr_o.append(ids[x])
            nbr[x].append(o)
            orig[x].append(0)
        orig[u][-1] = 1  # in_u -> out_u, just appended
        orig_o = [n] * len(nbr_o)
        orig_o[k] = 0
        nbr.append(nbr_o)
        orig.append(orig_o)
        rev.append(rev_o)
    return _UnitFlow(nbr, orig, rev)


# The split network of the host queried last, as a (host, network) pair
# (a Digraph is immutable).  Its rows are only ever read, so threads
# may share it.
_held: tuple[Digraph, _UnitFlow] | None = None


def _split_flow(d: Digraph) -> _UnitFlow:
    """A fresh flow on d's split network, built unless it is held."""
    global _held
    held = _held
    if held is None or held[0] is not d:
        held = _held = None  # drop the old network before building, so two are never alive at once
        held = _held = (d, _split_topology(d))
    return held[1].fresh()


def _arc_network(d: Digraph) -> _UnitFlow:
    """d itself with unit arc capacities, without ``cap``; a digon
    shares one entry pair."""
    nbr = [sorted({*d.out_nbrs(v), *d.in_nbrs(v)}) for v in d.vertices()]
    orig = [[1 if d.has_arc(v, w) else 0 for w in row] for v, row in enumerate(nbr)]
    rev = [[bisect_left(nbr[w], v) for w in row] for v, row in enumerate(nbr)]
    return _UnitFlow(nbr, orig, rev)


def _decompose_paths(net: _UnitFlow, s: int, goals, k: int) -> list[list[int]]:
    """Split a k-unit flow into k node sequences from s into ``goals``.

    Each step takes the lowest-id neighbour that still carries flow.
    Consumes the flow: every unit taken is handed back to ``net.cap``.
    """
    nbr, cap, orig = net.nbr, net.cap, net.orig
    paths = []
    for _ in range(k):
        seq = [s]
        while (u := seq[-1]) not in goals:
            caps, origs = cap[u], orig[u]
            for j, c in enumerate(caps):
                if origs[j] > c:
                    break
            else:
                raise InvariantViolation("flow decomposition lost a unit")
            caps[j] += 1
            seq.append(nbr[u][j])
        paths.append(seq)
    return paths


def _collapse(seq: list[int], n: int) -> Path:
    """Graph vertices of a split-network sequence ``out_u, in_x, out_x,
    ..., in_y[, out_y]``: u, then every in-node, whose id is its vertex."""
    return (seq[0] - n, *seq[1::2])


def _paths_or_cut(d: Digraph, source: int, goals, k: int):
    """Split-network flow from ``source`` into ``goals``: ``(sequences,
    None)`` with k node sequences when k units pass, else ``(None, cut)``
    with the vertices whose internal arcs form the residual cut."""
    net = _split_flow(d)
    sent = net.max_flow(source, goals, k)
    if sent >= k:
        return _decompose_paths(net, source, goals, k), None
    n = d.n
    reach = net.residual_reachable(source)
    cut = frozenset(w for w in range(n) if reach[w] and not reach[n + w])
    _check(len(cut) == sent, "cut size differs from the flow value")
    return None, cut


def _disjoint_cycle_flow(d: Digraph, w: int, limit: int) -> int:
    """Max number of directed cycles through w pairwise meeting only at w,
    capped at ``limit``: flow from out_w to in_w (the oracle's
    disjoint-cycle filter)."""
    return _split_flow(d).max_flow(d.n + w, {w}, limit)


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
        raise ValueError("k must be >= 1")

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
        raise ValueError("target set must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

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
    net = _arc_network(d)
    best = d.m + 1
    for t in range(1, d.n):
        for s, goal in ((0, t), (t, 0)):
            best = min(best, net.fresh().max_flow(s, {goal}, best))
            if best == 0:
                return 0
    return best


# ---------------------------------------------------------------------------
# self-checks (explicit raises, so ``python -O`` keeps them)
# ---------------------------------------------------------------------------

def _check_in_range(d: Digraph, vertices) -> None:
    """Bad input, not a bug: an id outside 0..n-1 raises ``VertexOutOfRange``."""
    for w in vertices:
        if not 0 <= w < d.n:
            raise VertexOutOfRange(f"vertex {w} outside 0..{d.n - 1}")


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
