"""Finding two-block cycles ``C(k1, k2)`` under minimum out-degree k1+3k2-5.

The search maintains a *good* dipath: one whose terminus carries two
disjoint out-forks of length k2-1 clear of the path.  Each round either
produces the two internally disjoint x-to-y routes of lengths >= k1 and
>= k2 directly, or strictly lengthens the good path; since the path
cannot outgrow the host, the loop terminates in at most n rounds.

For k2 = 1 a one-shot argument suffices: the end of a greedily maximal
dipath sends all its arcs back into the path, and its nearest and
farthest targets yield the long route and the short route at once.
"""

from __future__ import annotations

from .core import Digraph, Path, _check_in_range, bfs_levels, bfs_path, greedy_maximal_path, path_to, pattern_two_block
from .cycle_embed import lay_path
from .errors import BadParams, InvariantViolation, StuckGreedy
from .oracle import SearchBudget, SubdivisionCertificate, as_budget, require_valid
from .outcome import NotFound


def fork(d, v: int, l1: int, l2: int, forbidden=()) -> tuple[Path, Path]:
    """Two dipaths from v of lengths exactly l1 and l2, meeting only at
    v and avoiding ``forbidden``; greedy lowest-id extension.

    Raises ``StuckGreedy`` with the partial path when some endpoint has
    no fresh out-neighbour, which witnesses a degree shortfall.
    """
    _check_in_range(d, (v,))
    blocked = set(forbidden)
    blocked.discard(v)
    paths: list[list[int]] = []
    for target in (l1, l2):
        seq = [v]
        used = blocked | {w for p in paths for w in p}
        while len(seq) - 1 < target:
            for w in d.out_nbrs(seq[-1]):
                if w not in used and w not in seq and w != v:
                    seq.append(w)
                    break
            else:
                raise StuckGreedy(tuple(seq), len(seq) - 1)
        paths.append(seq)
    return tuple(paths[0]), tuple(paths[1])


def _certificate(route1: Path, route2: Path, k1: int, k2: int, host) -> SubdivisionCertificate:
    chains = []
    for length, first_interior in ((k1, 2), (k2, k1 + 1)):
        chains.append((0, *range(first_interior, first_interior + length - 1), 1))
    branch: dict[int, int] = {}
    paths: dict[tuple[int, int], Path] = {}
    if not (lay_path(chains[0], route1, branch, paths) and lay_path(chains[1], route2, branch, paths)):
        raise InvariantViolation("routes shorter than the pattern blocks")
    cert = SubdivisionCertificate(branch=branch, paths=paths)
    return require_valid(host, pattern_two_block(k1, k2), cert, "two-block certificate")


def _find_short_block(d: Digraph, k1: int) -> SubdivisionCertificate | NotFound:
    """k2 = 1: a maximal path's end fans back into the path."""
    tried = {}
    for start in d.vertices():
        path = greedy_maximal_path(d, start)
        end = path[-1]
        pos = {v: i for i, v in enumerate(path)}
        hits = sorted(pos[w] for w in d.out_nbrs(end))
        if hits and hits[-1] - hits[0] >= k1 - 1:
            lo, hi = hits[0], hits[-1]
            long_route = (end,) + path[lo : hi + 1]
            short_route = (end, path[hi])
            return _certificate(long_route, short_route, k1, 1, d)
        tried[start] = len(hits)
    return NotFound("no-wide-fan", {"k1": k1, "fan_sizes": tried})


class _GoodPathState:
    """The good path and its two out-forks."""

    __slots__ = ("p0", "p1", "p2")

    def __init__(self, p0: Path, p1: Path, p2: Path):
        self.p0 = p0
        self.p1 = p1
        self.p2 = p2
        x = p0[-1]
        if p1[0] != x or p2[0] != x:
            raise InvariantViolation("a fork does not start at the good path's end")
        if set(p1) & set(p2) != {x}:
            raise InvariantViolation("the two forks meet beyond their start")
        if set(p1) & set(p0) != {x} or set(p2) & set(p0) != {x}:
            raise InvariantViolation("a fork meets the good path beyond its end")

    @property
    def x(self) -> int:
        return self.p0[-1]


def find_two_block(d: Digraph, k1: int, k2: int, budget: SearchBudget | int | None = None,
                   log: list | None = None) -> SubdivisionCertificate | NotFound:
    """Certificate for a subdivision of ``C(k1, k2)``, or an honest miss.

    Guaranteed to succeed when the minimum out-degree is at least
    k1 + 3k2 - 5 (for k1 >= k2 >= 2) or k1 (for k2 = 1); below those
    thresholds it may return ``NotFound`` with the stuck state, but
    never an invalid certificate.  ``log`` collects one event dict per
    round when supplied.
    """
    if k2 < 1 or k1 < k2:
        raise BadParams(f"need k1 >= k2 >= 1, got ({k1}, {k2})")
    if k1 == 1 and k2 == 1:
        raise BadParams("C(1, 1) is not a simple pattern")
    budget = as_budget(budget)
    log = [] if log is None else log
    if k2 == 1:
        return _find_short_block(d, k1)

    state = _seed(d, k2)
    if isinstance(state, NotFound):
        return state

    rounds = 0
    while True:
        rounds += 1
        if rounds > d.n + 2:
            raise InvariantViolation("good path stopped growing")
        budget.charge(1, phase="round", length=len(state.p0))
        outcome = _round(d, state, k1, k2, budget)
        if isinstance(outcome, SubdivisionCertificate):
            log.append({"event": "close", "rounds": rounds, "path_len": len(state.p0) - 1})
            return outcome
        if isinstance(outcome, NotFound):
            log.append({"event": "stuck", "reason": outcome.reason, "rounds": rounds})
            return outcome
        if len(outcome.p0) <= len(state.p0):
            raise InvariantViolation("round must lengthen the good path")
        log.append({"event": "extend", "path_len": len(outcome.p0) - 1})
        state = outcome


def _seed(d: Digraph, k2: int) -> "_GoodPathState | NotFound":
    for u in d.vertices():
        for v in d.out_nbrs(u):
            try:
                p1, p2 = fork(d, v, k2 - 1, k2 - 1, forbidden={u})
            except StuckGreedy:
                continue
            return _GoodPathState((u, v), p1, p2)
    return NotFound("no-seed", {"k2": k2})


def _round(d: Digraph, state: _GoodPathState, k1: int, k2: int, budget: SearchBudget):
    p0, p1, p2 = state.p0, state.p1, state.p2
    x = state.x
    all_paths = set(p0) | set(p1) | set(p2)
    spine_targets = set(p0) - {x}

    # either both fork tips reach back into the path through fresh
    # territory, or the good path grows by one fork
    sides = {}
    for mine in (p1, p2):
        tip = mine[-1]
        avoid = all_paths - {tip}
        region, parent = bfs_levels(d, tip, avoid=avoid, budget=budget, phase="reach")
        found = _attachments(d, region, spine_targets, p0)
        if found:
            sides[tip] = (parent, found)
            continue
        grown = _improve(d, state, mine, k2, avoid)
        if grown is not None:
            return grown
        return NotFound(
            "fork-tip-stuck",
            {"phase": "reach-back", "tip": tip, "path_len": len(p0) - 1},
        )

    # take the fork with the farthest attachment as the long side
    if min(sides[p1[-1]][1]) > min(sides[p2[-1]][1]):
        state = _GoodPathState(p0, p2, p1)
        p1, p2 = p2, p1
    parent_a, found_a = sides[p1[-1]]
    return _endgame(d, state, k1, k2, budget, parent_a, found_a)


def _attachments(d: Digraph, region: dict[int, int], spine_targets: set[int], p0: Path) -> dict[int, int]:
    """Map path-position -> lowest region vertex whose arc lands there."""
    pos = {v: i for i, v in enumerate(p0)}
    found: dict[int, int] = {}
    for u in region:
        for w in d.out_nbrs(u):
            if w in spine_targets and u < found.get(pos[w], u + 1):
                found[pos[w]] = u
    return found


def _endgame(d, state, k1, k2, budget, parent_a, found_a):
    p0, p1, p2 = state.p0, state.p1, state.p2
    x = state.x
    p0_set, p2_set = set(p0), set(p2)
    a, b = p1[-1], p2[-1]

    # long route: first fork out to its farthest attachment point
    ia = min(found_a)
    a_star = p0[ia]
    p_astar = path_to(parent_a, a, found_a[ia]) + (a_star,)
    q = p1 + p_astar[1:]
    r = min(len(q) - 1, k1)
    qp = q[: r + 1]
    y = qp[-1]

    # where can the second fork land, avoiding the chosen route?
    avoid_b = (p0_set | set(q) | p2_set) - {b}
    region_b, parent_b = bfs_levels(d, b, avoid=avoid_b, budget=budget, phase="reach")
    bstars = _attachments(d, region_b, p0_set - {x}, p0)

    if len(bstars) >= k1 - r + 1:
        ib = max(bstars)
        if ib - ia < k1 - r:
            raise InvariantViolation("attachment spread below the pigeonhole bound")
        p_bstar = path_to(parent_b, b, bstars[ib]) + (p0[ib],)
        route1 = q + p0[ia + 1 : ib + 1]
        route2 = p2 + p_bstar[1:]
        return _certificate(route1, route2, k1, k2, d)

    if r == k1:
        # shortest dipath from b back to q at position >= r; q[:r] lies in
        # the avoided set already
        back = bfs_path(d, b, q[r:], (p0_set | set(qp) | p2_set) - {b, y},
                        budget=budget, phase="route-back")
        if back is not None:
            route1 = q[: q.index(back[-1]) + 1]
            route2 = p2 + back[1:]
            return _certificate(route1, route2, k1, k2, d)

    # no endgame: the good path must grow through the second fork
    avoid = (p0_set | set(qp) | p2_set) - {b, y}
    grown = _improve(d, state, p2, k2, avoid, retry_extra={y})
    if grown is not None:
        return grown
    return NotFound(
        "endgame-stuck",
        {"phase": "claim2", "b_star_count": len(bstars), "needed": k1 - r + 1, "r": r},
    )


def _improve(d: Digraph, state: _GoodPathState, mine: Path, k2: int,
             avoid, retry_extra: set | None = None):
    """Grow the good path by one fork; returns the new state or None."""
    tip = mine[-1]
    spine = state.p0 + mine[1:]
    attempts: list[tuple] = [()]
    if retry_extra:
        attempts.append(tuple(retry_extra))
    for extra in attempts:
        try:
            f1, f2 = fork(d, tip, k2 - 1, k2 - 2, forbidden=set(avoid) | set(extra))
        except StuckGreedy:
            continue
        z = f2[-1]
        banned = set(spine) | set(f1) | set(f2)
        step = next((w for w in d.out_nbrs(z) if w not in banned), None)
        if step is None:
            continue
        new_p2 = f2 + (step,)
        # fork keeps f2 off f1 and step avoids banned, so they meet only at tip
        if set(f1) & set(spine) != {tip} or set(new_p2) & set(spine) != {tip}:
            continue
        return _GoodPathState(spine, f1, new_p2)
    return None
