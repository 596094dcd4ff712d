"""Digraph representation, pattern generators and basic structural queries.

Digraphs here are loopless and simple (no parallel arcs) but may contain
digons, i.e. both (u, v) and (v, u).  Vertices are dense integers
0..n-1.  A :class:`Digraph` is immutable after construction, so values
can be shared freely across concurrent searches.

The module also houses the package's one traversal layer (``bfs_levels``,
``bfs_path``, ``path_to``, ``strong_components``) over a
:class:`Digraph`, the package's only graph type; the canonical pattern
generators used throughout the package (bioriented cliques/stars/paths,
transitive tournaments, directed cycles, the two-block cycle
``C(k1, k2)`` and the alternating source/sink cycle ``C_{a,b}``); the
edge-list text format and DOT export.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator

from .errors import (
    BadParams,
    DegeneratePattern,
    EmptyGraph,
    LoopArc,
    ParseError,
    VertexOutOfRange,
)

INFINITE = math.inf

Arc = tuple[int, int]
Path = tuple[int, ...]


class Digraph:
    """Immutable loopless simple digraph on vertices ``0..n-1``.

    Out- and in-adjacency are kept as sorted tuples; arc lookup is a
    binary search.  The in-adjacency is derived from the out-adjacency
    and stays consistent by construction.
    """

    __slots__ = ("n", "_out", "_in", "_m")

    def __init__(self, n: int, out_adj: tuple[tuple[int, ...], ...]):
        self.n = n
        self._out = out_adj
        ins: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            for v in out_adj[u]:
                ins[v].append(u)
        self._in = tuple(tuple(vs) for vs in ins)  # tails arrive ascending
        self._m = sum(len(t) for t in out_adj)

    # ---- queries -----------------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def out_nbrs(self, u: int) -> tuple[int, ...]:
        return self._out[u]

    def in_nbrs(self, u: int) -> tuple[int, ...]:
        return self._in[u]

    def has_arc(self, u: int, v: int) -> bool:
        row = self._out[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def arcs(self) -> Iterator[Arc]:
        for u in range(self.n):
            for v in self._out[u]:
                yield (u, v)

    def out_degree(self, u: int) -> int:
        return len(self._out[u])

    def in_degree(self, u: int) -> int:
        return len(self._in[u])

    # ---- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self._m})"


def _check_arc(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRange(f"arc ({u}, {v}) outside 0..{n - 1}")
    if u == v:
        raise LoopArc(f"loop arc ({u}, {u})")


def _check_in_range(d: Digraph, vertices) -> None:
    """Bad input, not a bug: an id outside 0..n-1 raises ``VertexOutOfRange``."""
    for w in vertices:
        if not 0 <= w < d.n:
            raise VertexOutOfRange(f"vertex {w} outside 0..{d.n - 1}")


def build_digraph(n: int, arcs: Iterable[Arc]) -> Digraph:
    """Digraph with exactly the given arcs; duplicates collapse."""
    if n < 0:
        raise BadParams(f"a digraph needs n >= 0 vertices, got {n}")
    rows: list[set[int]] = [set() for _ in range(n)]
    for u, v in arcs:
        if u == v or not (0 <= u < n and 0 <= v < n):
            _check_arc(n, u, v)  # raises the named error
        rows[u].add(v)
    return Digraph(n, tuple(tuple(sorted(r)) for r in rows))


# ---------------------------------------------------------------------------
# degree summaries
# ---------------------------------------------------------------------------

def min_out_degree(d: Digraph) -> int:
    if d.n == 0:
        raise EmptyGraph("degree of an empty graph")
    return min(len(d.out_nbrs(v)) for v in d.vertices())


# ---------------------------------------------------------------------------
# reachability / girth / components
# ---------------------------------------------------------------------------

def bfs_levels(host: Digraph, source: int, max_depth: float = INFINITE, avoid=(), *, targets=(),
               budget=None, phase: str | None = None) -> tuple[dict[int, int], dict[int, int]]:
    """Breadth-first distances and parents from ``source``.

    The package's one breadth-first loop over a digraph.  Outside this
    module only the oracle walks a digraph, on int bitmasks: its mask
    closure (``oracle._closure``) for yes/no reachability and its path
    search for reverse levels (``menger`` searches its own flow
    network).  ``host`` is a :class:`Digraph`.  Vertices in ``avoid``
    are never entered (the source itself is always entered).
    Neighbours are scanned in ascending id order, as the host's rows
    are sorted, so parents are deterministic.  The walk stops as soon as
    it enters a vertex of ``targets`` (a set or a short tuple; the
    source counts), which is then the last key of the distances.  With
    a ``budget``, every expanded vertex costs one
    ``budget.charge(1, phase=phase)``.
    """
    nbrs = host.out_nbrs
    blocked = frozenset(avoid)  # no copy when already frozen
    dist = {source: 0}  # entered first, so never blocked
    parent: dict[int, int] = {}
    if source in targets:
        return dist, parent
    frontier = [source]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        nxt = []
        for u in frontier:
            if budget is not None:
                budget.charge(1, phase=phase)
            for v in nbrs(u):
                if v in dist or v in blocked:
                    continue
                dist[v] = depth
                parent[v] = u
                if v in targets:
                    return dist, parent
                nxt.append(v)
        frontier = nxt
    return dist, parent


def bfs_path(host: Digraph, source: int, targets, avoid=(), max_depth: float = INFINITE, *,
             budget=None, phase: str | None = None) -> Path | None:
    """Shortest dipath from ``source`` to any vertex in ``targets``.

    The path meets ``targets`` only at its last vertex and avoids
    ``avoid`` entirely (except when the source itself is a target, in
    which case the zero-length path is returned).  Ties break toward
    lower vertex ids.  ``None`` if unreachable.
    """
    targets = frozenset(targets)
    dist, parent = bfs_levels(host, source, max_depth, avoid, targets=targets,
                              budget=budget, phase=phase)
    last = next(reversed(dist))
    return path_to(parent, source, last) if last in targets else None


def path_to(parent: dict, src: int, dst: int) -> Path:
    """The tree path from ``src`` down to ``dst``, read off parent links."""
    seq = [dst]
    while seq[-1] != src:
        seq.append(parent[seq[-1]])
    seq.reverse()
    return tuple(seq)


def directed_girth(d: Digraph):
    """Length of a shortest directed cycle; ``INFINITE`` when acyclic.

    One BFS per vertex: the shortest cycle through ``v`` is ``1 +
    dist(w, v)`` minimised over out-neighbours ``w``.  Scanning from
    every vertex keeps it exact at O(n * m).
    """
    best = INFINITE
    for v in d.vertices():
        dist, _ = bfs_levels(d, v, max_depth=min(best - 1, d.n))
        for w in d.in_nbrs(v):
            if w in dist and dist[w] + 1 < best:
                best = dist[w] + 1
                if best == 2:
                    return 2
    return best


def has_digon(d: Digraph) -> bool:
    return any(d.has_arc(v, u) for u, v in d.arcs())


def strong_components(d: Digraph) -> list[list[int]]:
    """Strongly connected components of ``d`` in reverse topological order.

    Iterative Tarjan with roots taken in ascending id order; each
    component is listed with its vertices sorted, so the output is
    deterministic.
    """
    return _components(d._out, range(d.n))


def _components(rows, roots) -> list[list[int]]:
    """Tarjan over out-rows indexed by vertex, from ``roots`` in
    the given order; a vertex no root reaches is left out.  A vertex's
    index is its place on the stack, so its component slices off there,
    and an emitted vertex's index becomes ``n``, above every low-link,
    so no on-stack flag is needed."""
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = len(stack)
        stack.append(root)
        work = [(root, iter(rows[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(rows[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = stack[index[v]:]
                    del stack[index[v]:]
                    for w in comp:
                        index[w] = n
                    comp.sort()
                    comps.append(comp)
                else:  # v's DFS parent is on top of the work stack
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comps


def is_dipath(host, seq: Path) -> bool:
    """True iff ``seq`` lists distinct vertices joined by arcs of ``host``."""
    if len(set(seq)) != len(seq):
        return False
    return all(host.has_arc(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


# ---------------------------------------------------------------------------
# pattern generators
# ---------------------------------------------------------------------------

def bioriented_clique(k: int) -> Digraph:
    """All k(k-1) arcs between k vertices."""
    return build_digraph(k, [(u, v) for u in range(k) for v in range(k) if u != v])


def bioriented_star(k: int) -> Digraph:
    """Digons between centre 0 and leaves 1..k."""
    if k < 0:
        raise BadParams(f"a star needs k >= 0 leaves, got {k}")
    arcs = []
    for leaf in range(1, k + 1):
        arcs.append((0, leaf))
        arcs.append((leaf, 0))
    return build_digraph(k + 1, arcs)


def bioriented_path(num_vertices: int) -> Digraph:
    """Digons along a path on ``num_vertices`` vertices."""
    arcs = []
    for i in range(num_vertices - 1):
        arcs.append((i, i + 1))
        arcs.append((i + 1, i))
    return build_digraph(num_vertices, arcs)


def transitive_tournament(k: int) -> Digraph:
    return build_digraph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def directed_cycle(length: int) -> Digraph:
    if length < 2:
        raise DegeneratePattern("a directed cycle needs length >= 2")
    return build_digraph(length, [(i, (i + 1) % length) for i in range(length)])


def directed_path(length: int) -> Digraph:
    """Dipath with ``length`` arcs on ``length + 1`` vertices."""
    if length < 0:
        raise BadParams(f"a dipath needs length >= 0, got {length}")
    return build_digraph(length + 1, [(i, i + 1) for i in range(length)])


def k3_minus_e() -> Digraph:
    """Bioriented triangle minus the arc (0, 2)."""
    return build_digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0)])


def pattern_two_block(k1: int, k2: int) -> Digraph:
    """Two-block cycle ``C(k1, k2)``: two x-to-y dipaths of those lengths.

    Canonical labels: x = 0, y = 1, then the interior of the length-k1
    path (2 .. k1), then the interior of the length-k2 path.  Requires
    k1 >= k2 >= 1; (1, 1) would need parallel arcs and is rejected.
    """
    if k2 < 1 or k1 < k2:
        raise DegeneratePattern(f"need k1 >= k2 >= 1, got ({k1}, {k2})")
    if k1 == 1 and k2 == 1:
        raise DegeneratePattern("C(1, 1) collapses to parallel arcs")
    arcs = []
    for length, first_interior in ((k1, 2), (k2, k1 + 1)):
        if length == 1:
            arcs.append((0, 1))
            continue
        chain = [0] + list(range(first_interior, first_interior + length - 1)) + [1]
        arcs.extend(zip(chain, chain[1:]))
    return build_digraph(k1 + k2, arcs)


def pattern_cab(a: int, b: int) -> Digraph:
    """Oriented cycle ``C_{a,b}`` with ``a`` sources and 2a length-b blocks.

    Sources s_1..s_a get ids 0..a-1 and sinks t_1..t_a get ids a..2a-1.
    Block interiors are numbered from 2a onward, blocks taken in the
    order (s_1 -> t_1), (s_1 -> t_2), (s_2 -> t_2), (s_2 -> t_3), ...
    with sink indices wrapping modulo a.  Total vertex count is 2ab.
    """
    if a < 1 or b < 1:
        raise DegeneratePattern(f"need a, b >= 1, got ({a}, {b})")
    if a == 1 and b == 1:
        raise DegeneratePattern("C_{1,1} collapses to parallel arcs")
    arcs = []
    nxt = 2 * a
    for i in range(a):
        s = i
        for t in (a + i, a + (i + 1) % a):
            chain = [s] + list(range(nxt, nxt + b - 1)) + [t]
            nxt += b - 1
            arcs.extend(zip(chain, chain[1:]))
    return build_digraph(2 * a * b, arcs)


# ---------------------------------------------------------------------------
# edge-list text format and DOT export
# ---------------------------------------------------------------------------

def write_edge_list(d: Digraph, comments: Iterable[str] = ()) -> str:
    """Serialize: optional ``#`` comment lines, then ``n m``, then arcs."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{d.n} {d.m}")
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


#: Largest vertex count ``read_edge_list`` accepts, checked before any
#: per-vertex storage is allocated; far above every host the package or
#: its benchmark builds (the largest has 4,000 vertices).
MAX_VERTICES = 10**6


def read_edge_list(text: str) -> Digraph:
    """Parse the ``n m`` edge-list format; ``#`` lines are skipped."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"non-integer header {rows[0]!r}") from exc
    if n < 0:
        raise ParseError(f"negative vertex count in header {rows[0]!r}")
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count in header {rows[0]!r} exceeds MAX_VERTICES = {MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} arc lines, found {len(rows) - 1}")
    arcs = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"arc line must be 'u v', got {ln!r}")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"non-integer arc line {ln!r}") from exc
    try:
        return build_digraph(n, arcs)
    except (LoopArc, VertexOutOfRange) as exc:
        raise ParseError(str(exc)) from exc


def file_comments(text: str) -> list[str]:
    """Leading ``#`` comment lines of an edge-list file, stripped."""
    out = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.startswith("#"):
            out.append(ln[1:].strip())
        elif ln:
            break
    return out


def to_dot(d: Digraph, name: str = "d") -> str:
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {v};" for v in d.vertices())
    lines.extend(f"  {u} -> {v};" for u, v in d.arcs())
    lines.append("}")
    return "\n".join(lines) + "\n"


def greedy_maximal_path(host, start: int) -> Path:
    """Extend a dipath from ``start`` by lowest-id fresh out-neighbours
    until the end vertex has no out-neighbour off the path."""
    _check_in_range(host, (start,))
    seq = [start]
    on_path = {start}
    while True:
        for w in host.out_nbrs(seq[-1]):
            if w not in on_path:
                seq.append(w)
                on_path.add(w)
                break
        else:
            return tuple(seq)
