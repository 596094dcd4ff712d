"""Finder for subdivisions of the alternating cycle ``C_{a,b}``.

The driver realises a minimal-counterexample argument as a working
loop: trim every out-degree down to the level k, grow a *good* chain of
gadgets (dense gadget coverage, bounded gadget sizes, gadget on the
last spine arc), and stop as soon as a closure event wires the chain
into a certificate.  When the local structure needed for a gadget is
missing at some arc, that arc's tail is contracted into its head, the
search restarts on the smaller graph, and certificates found later are
lifted back through the recorded contractions.

On hosts meeting the guarantee thresholds (out-degree at least k
and directed girth at least g) every branch of the loop is guaranteed
to make progress.  Desk-scale hosts sit far below those thresholds, so
the finder is built to fail honestly: every stuck state is reported
with a machine-readable reason, and every certificate is validated
against the pattern before being returned.
"""

from __future__ import annotations

from itertools import chain

from .core import (
    Digraph,
    Path,
    _check_in_range,
    bfs_levels,
    bfs_path,
    directed_girth,
    greedy_maximal_path,
    path_to,
    pattern_cab,
)
from .cycle_embed import certificate_from_cycle, digraph_cycle_shape
from .errors import (
    BadParams,
    ChainTooPoor,
    ClosureInvalid,
    DegeneratePattern,
    DigraphError,
    InvariantViolation,
    OverlapViolation,
    PreconditionUnverifiable,
    PropertyViolated,
    RetriesExhausted,
)
from .gadgets import (
    CabParams,
    Chain,
    Condition1,
    Condition2,
    Gadget,
    GadgetKind,
    close_chain,
    validate_gadget,
)
from .oracle import (
    ContractionRecord,
    SearchBudget,
    SubdivisionCertificate,
    as_budget,
    contract_arc,
    lift_contraction,
    require_valid,
)
from .outcome import NotFound
from .two_block import find_two_block


class _Stuck(DigraphError):
    """Internal: the growth loop reached a state outside every case.

    Only possible below the guarantee thresholds; converted into a
    ``NotFound`` at the driver boundary.
    """

    def __init__(self, reason: str, details: dict | None = None):
        super().__init__(reason)
        self.reason = reason
        self.details = details or {}


# ---------------------------------------------------------------------------
# long directed cycles
# ---------------------------------------------------------------------------

def long_dicycle(d: Digraph) -> Path:
    """Directed cycle of length at least the minimum out-degree plus one.

    A greedily maximal dipath ends at a vertex whose every out-arc lands
    back on the path; the earliest such landing closes a long cycle.
    The cycle is returned as a vertex tuple, closing arc implied.
    """
    if d.n == 0:
        raise BadParams("empty graph has no cycles")
    path = greedy_maximal_path(d, 0)
    end = path[-1]
    if not d.out_nbrs(end):
        raise BadParams("a sink makes the minimum out-degree zero")
    pos = {v: i for i, v in enumerate(path)}
    first = min(pos[w] for w in d.out_nbrs(end))
    return path[first:]


# ---------------------------------------------------------------------------
# girth reduction
# ---------------------------------------------------------------------------

_GIRTH_CHECK_WORK = 2 * 10**7


def reduce_girth(d: Digraph, k: int, g: int, seed=None,
                 max_retries: int = 64) -> tuple[Digraph, list[int]]:
    """Subgraph with out-degrees at least k and directed girth at least g.

    Each retry assigns every vertex a uniform level in 0..g-1, keeps
    only arcs climbing one level (mod g), so every surviving cycle has
    length divisible by g, then peels vertices of out-degree below k.
    Postconditions are re-verified on every success: out-degrees and the
    level invariant always, the girth by direct computation when the
    instance is small (``n * m`` at most ``_GIRTH_CHECK_WORK``).

    Returns the subgraph together with the list of original vertex ids;
    vertex i of the subgraph is ``kept[i]`` in the input.  The arcs stay
    in numpy arrays from the input's rows to the subgraph's; numpy is
    imported here, so that importing the package does not load it.
    """
    if k < 0 or g < 1:
        raise BadParams("need k >= 0 and g >= 1")
    if d.m == 0:
        raise RetriesExhausted("no arcs to filter")
    import numpy as np

    _, tails, heads = _arc_arrays(np, d)
    rng = np.random.default_rng(seed)

    for _ in range(max_retries):
        levels = rng.integers(0, g, size=d.n)
        keep = levels[heads] == (levels[tails] + 1) % g
        kt = tails[keep]
        kh = heads[keep]
        alive = _peel(np, d.n, kt, kh, k)
        survivors = np.flatnonzero(alive)
        if survivors.size == 0:
            continue
        both = alive[kt] & alive[kh]
        # the kept arcs are still sorted by (tail, head) and renumbering
        # by rank keeps that order, so cutting the heads at the tails'
        # counts gives the subgraph's rows
        rank = np.cumsum(alive) - 1
        bounds = np.cumsum(np.bincount(kt[both], minlength=d.n)[survivors]).tolist()
        new_heads = rank[kh[both]].tolist()
        # every entry is the one int object of its id: rows of fresh ints
        # (plain ``tolist`` slices) slow every later walk over the subgraph
        ids = list(range(survivors.size))
        rows = tuple(
            tuple(map(ids.__getitem__, new_heads[lo:hi]))
            for lo, hi in zip([0] + bounds, bounds)
        )
        sub = Digraph(len(ids), rows)
        deg, sub_tails, sub_heads = _arc_arrays(np, sub)
        if deg.min() < k:
            raise InvariantViolation("peeling left a vertex of out-degree below k")
        sub_levels = levels[survivors]
        if not np.array_equal((sub_levels[sub_tails] + 1) % g, sub_levels[sub_heads]):
            raise InvariantViolation("level invariant broken")
        if sub.n * sub.m <= _GIRTH_CHECK_WORK and directed_girth(sub) < g:
            raise InvariantViolation("reduced graph has a cycle shorter than g")
        return sub, survivors.tolist()
    raise RetriesExhausted(f"no qualifying subgraph in {max_retries} attempts")


def _arc_arrays(np, d: Digraph):
    """Out-degrees, tails and heads of ``d``'s arcs in row order, as
    int64 arrays (``np`` is the numpy module)."""
    deg = np.fromiter(map(d.out_degree, d.vertices()), dtype=np.int64, count=d.n)
    tails = np.repeat(np.arange(d.n, dtype=np.int64), deg)
    heads = np.fromiter(chain.from_iterable(map(d.out_nbrs, d.vertices())),
                        dtype=np.int64, count=tails.size)
    return deg, tails, heads


def _peel(np, n: int, tails, heads, k: int):
    """Iteratively drop vertices of out-degree below k; return the
    boolean mask of survivors (``np`` is the numpy module).

    The survivors are the largest vertex set in which every vertex keeps
    k out-arcs, whatever the order of dropping, so only the vertices
    that drop are visited, through a CSR of in-lists built on demand.
    """
    out_deg = np.bincount(tails, minlength=n)
    alive = out_deg >= k
    queue = np.flatnonzero(~alive).tolist()
    if not queue:
        return alive
    order = np.argsort(heads, kind="stable")
    in_tails = tails[order].tolist()
    starts = [0] + np.cumsum(np.bincount(heads, minlength=n)).tolist()
    live = alive.tolist()
    deg = out_deg.tolist()
    while queue:
        v = queue.pop()
        for t in in_tails[starts[v]:starts[v + 1]]:
            if live[t]:
                deg[t] -= 1
                if deg[t] < k:
                    live[t] = False
                    queue.append(t)
    return np.array(live, dtype=bool)


# ---------------------------------------------------------------------------
# gadget embeddings
# ---------------------------------------------------------------------------

def _short_cycle_through(host, x: int, y: int, g: int, budget: SearchBudget) -> Path | None:
    """Directed cycle through the arc (x, y) of length at most 2g - 1,
    as a vertex tuple starting (x, y, ...).  With girth at least g the
    result has length exactly g when it exists at that length."""
    back = bfs_path(host, y, (x,), max_depth=2 * g - 2, budget=budget, phase="embed-bfs")
    if back is None:
        return None
    return (x,) + back[:-1]


def _walk_step(host, walk: list[int], y: int, seen: set[int]) -> None:
    """Append to ``walk`` a common in-neighbour z of its last vertex x
    and of y; ``PropertyViolated`` names the arc (x, y) when there is
    none, and ``_Stuck`` reports a z the walks already hold."""
    x = walk[-1]
    xs = set(host.in_nbrs(x))
    z = next((z for z in host.in_nbrs(y) if z in xs and z != x and z != y), None)
    if z is None:
        raise PropertyViolated((x, y))
    if z in seen:
        raise _Stuck("walk-collision", {"arc": (x, y), "vertex": z})
    walk.append(z)
    seen.add(z)


def embed_gadget_i_or_ii(host, p: int, q: int, b: int, g: int,
                         budget: SearchBudget | int | None = None) -> Gadget:
    """Cycle gadget or extended dominating gadget anchored at (p, q).

    Follows two nested common-in-neighbour walks.  Requires the host to
    satisfy, at every queried arc, either a length-g cycle through it or
    a common in-neighbour of its endpoints; the first failing arc is
    reported via ``PropertyViolated`` so the caller can contract it.
    ``_Stuck`` signals a girth violation (walk vertices collided).
    """
    budget = as_budget(budget)
    _check_in_range(host, (p,))
    if b < 1:
        raise BadParams(f"need b >= 1, got {b}")
    if not host.has_arc(p, q):
        raise BadParams(f"({p}, {q}) is not an arc")

    r_walk = [p]
    seen = {p, q}
    if _walk(host, r_walk, q, 2 * b * b + b - 2, g, seen, budget):
        cyc = _short_cycle_through(host, p, q, g, budget)
        if cyc is None or len(cyc) < g:
            raise _Stuck("girth-too-small", {"arc": (p, q)})
        return _require_valid(host, Gadget(kind=GadgetKind.TYPE_I, p=p, q=q, cycle=cyc), b, g)

    p1 = tuple(reversed(r_walk))  # r .. p, every vertex dominates q
    u = r_walk[-2]
    w_walk = [r_walk[-1]]
    if _walk(host, w_walk, u, b, g, seen, budget):
        # the second walk met a cycle through (x, u): its last vertex v
        # on the first walk sends the back arc, and the cycle segment
        # after v plus the second walk's descent is the auxiliary dipath
        x = w_walk[-1]
        cyc = _short_cycle_through(host, x, u, g, budget)
        if cyc is None or len(cyc) != g:
            raise _Stuck("girth-too-small", {"arc": (x, u)})
        # q or a second-walk vertex on cyc[1:] would fail a walk's distance check
        idx = max(j for j in range(1, g) if cyc[j] in r_walk)
        link = ("back_arc", cyc[idx])
        p2 = cyc[idx + 1 :] + (x,) + tuple(reversed(w_walk[:-1]))
    else:
        link = ("first_to_second",)
        p2 = tuple(reversed(w_walk))  # w_b .. r
    gadget = Gadget(kind=GadgetKind.TYPE_II_EXTENDED, p=p, q=q, r=r_walk[-1],
                    p1=p1, p2=p2, link=link)
    return _require_valid(host, gadget, b, g)


def _walk(host, walk: list[int], y: int, steps: int, g: int, seen: set[int],
          budget: SearchBudget) -> bool:
    """Take up to ``steps`` common-in-neighbour steps from ``walk``'s end
    towards y; True, with the walk ending at x, once a cycle of length
    at most g runs through the arc (x, y)."""
    for _ in range(steps):
        if _girth_distance_hits(host, walk[-1], y, g, budget):
            return True
        _walk_step(host, walk, y, seen)
    return False


def _girth_distance_hits(host, x: int, y: int, g: int, budget: SearchBudget) -> bool:
    """Is there a y-to-x dipath of length at most g - 1 (hence a cycle of
    length at most g through (x, y))?"""
    dist, _ = bfs_levels(host, y, g - 1, targets=(x,), budget=budget, phase="embed-bfs")
    return x in dist


def _require_valid(host, gadget: Gadget, b: int, g: int) -> Gadget:
    report = validate_gadget(host, gadget, b, g)
    if not report:
        raise _Stuck("embedded-gadget-invalid", {"kind": gadget.kind.value, "why": report.violation})
    return gadget


# ---------------------------------------------------------------------------
# merge-gadget embedding via a subdivided out-arborescence
# ---------------------------------------------------------------------------

def embed_gadget_iii(host, v: int, b: int, h: int, width: int,
                     budget: SearchBudget | int | None = None) -> tuple[Path, Gadget]:
    """Merge gadget grown from v, plus the clean dipath leading to it.

    Grows a (2b-1)-subdivided ``width``-ary out-arborescence from v.
    The first vertex whose greedy arm bundle stalls becomes the pivot:
    a stalled arm end must send an arc back into the tree, and far
    enough from the pivot's root path that two long tree paths plus the
    arm close into a merge gadget.  Degree or ball-size shortfalls
    surface as ``PreconditionUnverifiable`` with a witness.
    """
    budget = as_budget(budget)
    _check_in_range(host, (v,))
    if b < 1:
        raise BadParams(f"need b >= 1, got {b}")
    arm_len = 2 * b - 1
    parent: dict[int, int] = {v: None}
    depth: dict[int, int] = {v: 0}
    tree: set[int] = {v}
    level = [v]

    for lvl in range(h + 1):
        next_level: list[int] = []
        for u in level:
            arms = _greedy_arms(host, u, tree, arm_len, width, budget)
            if all(len(arm) - 1 == arm_len for arm in arms):
                for arm in arms:
                    for i in range(1, len(arm)):
                        parent[arm[i]] = arm[i - 1]
                        depth[arm[i]] = depth[u] + i
                        tree.add(arm[i])
                    next_level.append(arm[-1])
                continue
            return _extract_merge_gadget(host, v, u, arms, parent, depth, tree, b, h, budget)
        if not next_level:
            raise PreconditionUnverifiable("arborescence died out", witness=v)
        level = next_level
    raise PreconditionUnverifiable("vertex ball too large for the requested width", witness=v)


def _greedy_arms(host, u: int, tree: set[int], arm_len: int, width: int,
                 budget: SearchBudget) -> list[list[int]]:
    """Round-robin greedy growth of ``width`` arms from u, mutually
    disjoint and clear of the tree; stalls are final."""
    arms = [[u] for _ in range(width)]
    used: set[int] = set()
    progressed = True
    while progressed:
        progressed = False
        for arm in arms:
            if len(arm) - 1 == arm_len:
                continue
            budget.charge(1, phase="arm-growth")
            tip = arm[-1]
            step = next(
                (w for w in host.out_nbrs(tip) if w not in tree and w not in used and w != u),
                None,
            )
            if step is not None:
                arm.append(step)
                used.add(step)
                progressed = True
    return arms


def _lca(parent, depth, x: int, y: int) -> int:
    while depth[x] > depth[y]:
        x = parent[x]
    while depth[y] > depth[x]:
        y = parent[y]
    while x != y:
        x, y = parent[x], parent[y]
    return x


def _extract_merge_gadget(host, root, u, arms, parent, depth, tree, b, h, budget):
    arm_len = 2 * b - 1
    stalled = [arm for arm in arms if len(arm) - 1 < arm_len]
    if not stalled:
        raise InvariantViolation("extraction requires a stalled arm")
    for arm in stalled:
        w = arm[-1]
        for x in host.out_nbrs(w):
            budget.charge(1, phase="merge-target")
            if x not in tree:
                continue
            y = _lca(parent, depth, u, x)
            if min(depth[u], depth[x]) - depth[y] <= 2 * b - 2:
                continue
            p1 = path_to(parent, y, x)
            down = path_to(parent, y, u)
            z = down[1]
            p2 = down[1:] + tuple(arm[1:]) + (x,)
            gadget = Gadget(kind=GadgetKind.TYPE_III, p=y, q=z, r=x, p1=p1, p2=p2)
            p0 = path_to(parent, root, y)
            report = validate_gadget(host, gadget, b, 1)
            if not report:
                continue
            if len(p0) > h * (2 * b - 1) or len(gadget.vertices()) > (2 * h + 2) * (2 * b - 1):
                continue
            if set(p0) & gadget.vertices() != {y}:
                continue
            return p0, gadget
    raise PreconditionUnverifiable(
        "stalled arms found no usable tree target", witness=(u, tuple(dict.fromkeys(a[-1] for a in stalled)))
    )


# ---------------------------------------------------------------------------
# the growth loop
# ---------------------------------------------------------------------------

def find_cab(d: Digraph, a: int, b: int, budget: SearchBudget | int | None = None,
             log: list | None = None) -> SubdivisionCertificate | NotFound:
    """Certificate for a subdivision of ``C_{a,b}``, or an honest miss.

    Success is guaranteed at the derived degree/girth thresholds; on weaker
    hosts the returned ``NotFound`` explains where the machinery got
    stuck.  Certificates are validated before being returned, whatever
    the input looked like.
    """
    if a < 2:
        raise DegeneratePattern("need at least two sources; route a=1 to the two-block finder")
    params = CabParams(a=a, b=b)
    budget = as_budget(budget)
    log = [] if log is None else log
    pattern = pattern_cab(a, b)

    fast = _exact_cycle_certificate(d, pattern)
    if fast is not None:
        log.append({"event": "close", "via": "exact-cycle", "n": d.n})
        return fast

    # the working graph keeps d's ids: a contracted vertex stays behind
    # isolated, and the live vertex count is d.n - len(records).  One
    # trim serves every round: a contraction never lengthens a row
    work = _trim(d, params.k, log)
    records: list[ContractionRecord] = []
    while True:
        try:
            found = _grow_and_close(work, params, budget, log)
        except PropertyViolated as pv:
            # the walks saw no cycle of length <= g through it and no shared in-neighbour
            work, record = contract_arc(work, *pv.arc, keep=pv.arc[1])
            records.append(record)
            log.append({"event": "contract", "arc": pv.arc, "n": d.n - len(records), "m": work.m})
            continue
        except _Stuck as stuck:
            return NotFound(stuck.reason, stuck.details)
        except PreconditionUnverifiable as pre:
            return NotFound("degree-below-threshold", {"witness": pre.witness, "why": str(pre)})
        if found is None:
            return NotFound("no-seedable-arc", {"n": d.n - len(records), "m": work.m})
        for record in reversed(records):
            found = lift_contraction(found, record)
        return require_valid(d, pattern, found, "lifted certificate")


def _exact_cycle_certificate(d: Digraph, pattern: Digraph) -> SubdivisionCertificate | None:
    """Hosts that are themselves one oriented cycle are read off directly;
    ``certificate_from_cycle`` rejects every other arc set, a directed
    cycle among them."""
    if d.m != d.n:
        return None
    return certificate_from_cycle(d.arcs(), pattern, d)


def _trim(work: Digraph, k: int, log) -> Digraph:
    """The graph whose rows keep their k lowest out-neighbours."""
    trimmed = sum(max(0, work.out_degree(v) - k) for v in work.vertices())
    if not trimmed:
        return work
    log.append({"event": "trim", "arcs_removed": trimmed})
    return Digraph(work.n, tuple(work.out_nbrs(v)[:k] for v in work.vertices()))


class _Growth:
    """The chain under growth, kept so that an extension touches only
    the entries it adds.

    ``spine`` and ``gadgets`` are the chain's spine and gadget map,
    ``on_spine`` holds the spine's vertices, and ``index`` maps each
    chain vertex to the largest arc index holding it: spine[j] to
    min(j, m - 1), a gadget's other vertices to its arc.  A closure
    attempt takes a plain ``Chain`` from ``cut``.
    """

    def __init__(self, head: int):
        self.spine = [head]
        self.on_spine = {head}
        self.gadgets: dict[int, Gadget] = {}
        self.index: dict[int, int] = {}

    @property
    def m(self) -> int:
        return len(self.spine) - 1

    def extend(self, lead: Path, gadget: Gadget) -> bool:
        """Continue the spine by the dipath ``lead``, which ends at the
        gadget's p, then by its q, with the gadget on that last arc;
        False, and nothing changed, when the spine would repeat a vertex."""
        added = lead + (gadget.q,)
        if len(set(added)) != len(added) or not self.on_spine.isdisjoint(added):
            return False
        first = self.m
        self.spine.extend(added)
        self.on_spine.update(added)
        last = self.m - 1
        self.gadgets[last] = gadget
        self.index.update((self.spine[j], j) for j in range(first, last + 1))
        self.index.update(dict.fromkeys(gadget.vertices(), last))
        return True

    def cut(self, idx: int, tail: Path) -> Chain:
        """The chain from spine index ``idx`` on, its spine continued by
        ``tail``."""
        return Chain(
            spine=tuple(self.spine[idx:]) + tail,
            gadgets={i - idx: g for i, g in self.gadgets.items() if i >= idx},
        )


def _grow_and_close(work: Digraph, params: CabParams, budget: SearchBudget, log):
    """Certificate on ``work``, or None when no arc seeds a chain."""
    growth = _seed_chain(work, params, budget)
    if growth is None:
        return None
    log.append({"event": "extend", "via": "seed", "spine": growth.m})

    while True:
        budget.charge(1, phase="chain-round", spine=growth.m)
        i0 = max(0, growth.m - params.tail_window)
        action = _scan(work, growth, i0, params, budget, log)
        if isinstance(action, SubdivisionCertificate):
            return action
        if action is None:
            _extend_with_merge(work, growth, params, budget)
            action = "merge"
        log.append({"event": "extend", "via": action, "spine": growth.m})


def _seed_chain(work: Digraph, params: CabParams, budget: SearchBudget) -> _Growth | None:
    for u in work.vertices():
        for v in work.out_nbrs(u):
            gadget = embed_gadget_i_or_ii(work, u, v, params.b, params.g, budget)
            growth = _Growth(u)
            growth.extend((), _chain_form(gadget))
            return growth
    return None


def _chain_form(gadget: Gadget) -> Gadget:
    """Chains carry cycle gadgets whole but only the basic part of an
    extended dominating gadget."""
    if gadget.kind is GadgetKind.TYPE_II_EXTENDED:
        return Gadget(
            kind=GadgetKind.TYPE_II_BASIC, p=gadget.p, q=gadget.q,
            r=gadget.r, p1=gadget.p1,
        )
    return gadget


def _scan(work, growth: _Growth, i0: int, params: CabParams, budget: SearchBudget, log):
    """One breadth-first pass near the chain's head, entering no chain
    vertex but the head.

    The growth index splits the chain into its tail (the vertices held
    by an arc from ``i0`` on) and its old part (every other chain
    vertex).  Returns a certificate on a closure, the label of an
    extension made in place, or None when the whole ball yields no move.
    """
    b, g = params.b, params.g
    index = growth.index
    vm = growth.spine[-1]
    dist = {vm: 0}
    parent: dict[int, int] = {}
    order = [vm]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        budget.charge(1, phase="scan", spine=growth.m)

        # an arc from the explored region back into the chain's old part
        # closes the chain immediately
        if i0 > 0:
            x_hit = next((x for x in work.out_nbrs(u) if index.get(x, i0) < i0), None)
            if x_hit is not None:
                cert = _close_via_arc(work, growth, parent, u, x_hit, params, log)
                if cert is not None:
                    return cert

        if u != vm:
            w = parent[u]
            gadget = embed_gadget_i_or_ii(work, w, u, b, g, budget)
            touched = index.keys() & gadget.vertices()
            if touched <= {vm}:
                if _extend_with_fresh_gadget(growth, parent, u, gadget, params):
                    return "fresh-gadget"
            elif i0 > 0 and all(index[x] < i0 for x in touched):
                cert = _close_via_gadget(work, growth, parent, u, gadget, params, log)
                if cert is not None:
                    return cert

        if dist[u] < params.a2_gap:
            for wnext in work.out_nbrs(u):
                if wnext not in dist and wnext not in index:
                    dist[wnext] = dist[u] + 1
                    parent[wnext] = u
                    order.append(wnext)
    return None


def _close_from(work, growth: _Growth, idx: int, tail: Path, closure, via: str, params, log):
    """Close the chain cut at spine index ``idx`` and extended by ``tail``.

    Returns the certificate, or None when ``close_chain`` rejects the
    closure.
    """
    # every tail is a repeat-free run of explored vertices, none on the chain
    trial = growth.cut(idx, tail)
    try:
        cert = close_chain(work, trial, closure, params.a, params.b)
    except (ClosureInvalid, ChainTooPoor, OverlapViolation, BadParams):
        return None
    log.append({"event": "close", "via": via, "spine": trial.m})
    return cert


def _close_via_arc(work, growth, parent, u, x, params, log):
    """Condition-1 closure: u (in the explored region) sends an arc to x
    on the chain's old part."""
    q_path = path_to(parent, growth.spine[-1], u)
    return _close_from(work, growth, growth.index[x], q_path[1:], Condition1(x=x),
                       "arc", params, log)


def _close_via_gadget(work, growth, parent, u, gadget, params, log):
    """Condition-2 (dominating) or condition-1 (cycle) closure through a
    gadget that touches the chain, and only its old part."""
    index = growth.index
    q_path = path_to(parent, growth.spine[-1], u)

    if gadget.kind is GadgetKind.TYPE_II_EXTENDED:
        idx = max(index[x] for x in gadget.vertices() if x in index)
        return _close_from(work, growth, idx, q_path[1:-1],
                           Condition2(zstar=u, gstar=gadget), "dominating-gadget", params, log)

    # cycle gadget: ride it from the first fresh-path vertex on it to the
    # first chain vertex; the arc entering the chain closes things up
    # index[vm] >= i0 keeps vm off the cycle, so j >= 1 and rotated[0] is explored
    j, rotated = _rotate_onto_path(gadget.cycle, q_path)
    hit = next(t for t in range(1, len(rotated)) if rotated[t] in index)
    x = rotated[hit]
    return _close_from(work, growth, index[x], q_path[1:j + 1] + rotated[1:hit],
                       Condition1(x=x), "cycle-gadget", params, log)


def _rotate_onto_path(cyc: Path, q_path: Path) -> tuple[int, Path]:
    """Index j of the first vertex of ``q_path`` on the cycle (the path
    ends on it, so there is one), and the cycle rotated to start there."""
    on_cycle = set(cyc)
    j = next(jj for jj, v in enumerate(q_path) if v in on_cycle)
    start = cyc.index(q_path[j])
    return j, cyc[start:] + cyc[:start]


def _extend_with_fresh_gadget(growth: _Growth, parent, u, gadget: Gadget, params: CabParams) -> bool:
    """Append the explored path and a fresh gadget to the chain; False
    when the chain cannot take them."""
    q_path = path_to(parent, growth.spine[-1], u)

    if gadget.kind is GadgetKind.TYPE_II_EXTENDED:
        gadget = _chain_form(gadget)
        if gadget.vertices() & set(q_path) != {q_path[-2], u}:
            return False
        lead = q_path[1:-1]
    else:
        # anchor the cycle at the first explored-path vertex it touches;
        # that may be the chain's head itself
        j, rotated = _rotate_onto_path(gadget.cycle, q_path)
        if rotated[1] in q_path[:j]:
            return False
        gadget = Gadget(kind=GadgetKind.TYPE_I, p=rotated[0], q=rotated[1], cycle=rotated)
        lead = q_path[1 : j + 1]

    if len(gadget.vertices()) > params.max_gadget_size:
        return False
    # the gadget may meet the extended spine only at its own arc
    added = set(lead)
    added.add(gadget.q)
    met = {x for x in gadget.vertices() if x in added or x in growth.on_spine}
    if met != {lead[-1] if lead else growth.spine[-1], gadget.q}:
        return False
    return growth.extend(lead, gadget)


def _extend_with_merge(work: Digraph, growth: _Growth, params: CabParams,
                       budget: SearchBudget) -> None:
    """Append a merge gadget grown from the chain's head in ``work`` with
    every arc at another chain vertex cut off."""
    index = growth.index
    vm = growth.spine[-1]
    host = Digraph(work.n, tuple(
        () if v != vm and v in index
        else tuple(w for w in work.out_nbrs(v) if w == vm or w not in index)
        for v in work.vertices()
    ))
    p0, gadget = embed_gadget_iii(host, vm, params.b, params.h, params.d, budget)
    if p0[0] != vm or p0[-1] != gadget.p:
        raise InvariantViolation("merge path does not join the chain's head to the gadget")
    if not growth.extend(p0[1:], gadget):
        raise InvariantViolation("merge extension re-used a spine vertex")


# ---------------------------------------------------------------------------
# arbitrary cycle orientations
# ---------------------------------------------------------------------------

def find_oriented_cycle_subdivision(d: Digraph, orientation: Digraph,
                                    budget: SearchBudget | int | None = None,
                                    log: list | None = None) -> SubdivisionCertificate | NotFound:
    """Certificate for a subdivision of an arbitrary cycle orientation.

    Directed cycles ride a long-cycle search; one-source orientations go
    to the two-block finder; everything else goes to ``find_cab`` for
    the alternating cycle ``C_{a,b}``, where a counts the sources and b
    is the longest block.  The certificate is always expressed against
    ``orientation`` itself: every block of the found subdivision is at
    least as long as the orientation block it stands for, so the
    re-reading cannot miss.
    """
    budget = as_budget(budget)
    shape = digraph_cycle_shape(orientation)
    if shape is None:
        raise BadParams("pattern is not an orientation of a cycle")

    if shape.dicycle is not None:
        ell = len(shape.dicycle)
        try:
            cycle = long_dicycle(d)
        except BadParams:
            return NotFound("sink-in-host", {})
        if len(cycle) < ell:
            return NotFound("longest-greedy-cycle-too-short", {"found": len(cycle), "needed": ell})
        arcs = set(zip(cycle, cycle[1:])) | {(cycle[-1], cycle[0])}
    else:
        lens = sorted((len(blk.path) - 1 for blk in shape.blocks), reverse=True)
        if shape.sources == 1:
            found = find_two_block(d, lens[0], lens[1], budget, log=log)
        else:
            found = find_cab(d, shape.sources, lens[0], budget, log)
        if isinstance(found, NotFound):
            return found
        arcs = found.arcs()
    cert = certificate_from_cycle(arcs, orientation, d)
    if cert is None:
        raise InvariantViolation("a found cycle must read off as the orientation")
    return cert
