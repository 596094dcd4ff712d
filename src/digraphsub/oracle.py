"""Ground-truth subdivision containment by exhaustive backtracking.

``contains_subdivision`` decides whether a host digraph contains a
subdivision of a pattern digraph and, when it does, returns an explicit
:class:`SubdivisionCertificate`.  The search is exhaustive within an
explicit node budget; running out of budget raises ``BudgetExceeded``
and is never confused with a definite "no".

This module is the independent checker for every constructive finder in
the package: finders must never disagree with it, and every certificate
from any source can be validated here against its pattern.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import Digraph, Path, has_digon
from .errors import BadParams, BudgetExceeded, InvariantViolation, ParseError
from . import menger as _menger

DEFAULT_BUDGET = 10**7


@dataclass
class SearchBudget:
    """Backtracking-node allowance shared across one search."""

    max_nodes: int = DEFAULT_BUDGET
    consumed: int = 0

    def charge(self, amount: int = 1, **context) -> None:
        self.consumed += amount
        if self.consumed > self.max_nodes:
            raise BudgetExceeded(details={"consumed": self.consumed, **context})


@dataclass(frozen=True)
class SubdivisionCertificate:
    """Witness that a host contains a subdivision of a pattern.

    ``branch`` maps each pattern vertex to a distinct host vertex and
    ``paths`` maps each pattern arc (x, y) to a host dipath from
    branch[x] to branch[y]; paths for different arcs share no internal
    vertices and no internal vertex is a branch image.
    """

    branch: dict[int, int] = field(default_factory=dict)
    paths: dict[tuple[int, int], Path] = field(default_factory=dict)

    def vertices(self) -> set[int]:
        used = set(self.branch.values())
        for p in self.paths.values():
            used.update(p)
        return used

    def arcs(self) -> set[tuple[int, int]]:
        out = set()
        for p in self.paths.values():
            out.update(zip(p, p[1:]))
        return out

    def to_json(self) -> str:
        payload = {
            "branch": {str(k): v for k, v in sorted(self.branch.items())},
            "paths": [
                {"from": x, "to": y, "vertices": list(p)}
                for (x, y), p in sorted(self.paths.items())
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SubdivisionCertificate":
        try:
            payload = json.loads(text)
            branch = {int(k): int(v) for k, v in payload["branch"].items()}
            paths = {
                (int(e["from"]), int(e["to"])): tuple(int(v) for v in e["vertices"])
                for e in payload["paths"]
            }
        except (AttributeError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad certificate JSON: {exc}") from exc
        return cls(branch=branch, paths=paths)


@dataclass(frozen=True)
class ContractionRecord:
    """The arc (tail, head) was merged into its end ``keep``; ``tail_ins``
    are the tail's in-neighbours other than the head."""

    tail: int
    head: int
    keep: int
    tail_ins: tuple[int, ...]


def contract_arc(d: Digraph, tail: int, head: int, keep: int) -> tuple[Digraph, ContractionRecord]:
    """Contract the arc (tail, head) into ``keep``, one of its ends.

    The merged vertex gets the head's out-row minus the tail and the
    in-neighbours of both ends; the other end stays behind isolated, so
    every id keeps its meaning.  The ends must share no in-neighbour,
    which would merge two arcs into one.
    """
    rows = list(map(d.out_nbrs, d.vertices()))
    gone_ins = d.in_nbrs(head if keep == tail else tail)
    record = _contract_rows(rows, tail, head, keep, gone_ins, d.in_nbrs(tail))
    return Digraph(d.n, tuple(rows)), record


def _contract_rows(rows: list, tail: int, head: int, keep: int,
                   gone_ins, tail_ins) -> ContractionRecord:
    """``contract_arc`` on a list of out-rows, edited in place;
    ``gone_ins`` and ``tail_ins`` are the in-neighbours of the end that
    goes and of the tail."""
    gone = head if keep == tail else tail
    for z in gone_ins:
        if z == keep:
            continue
        if keep in rows[z]:
            raise InvariantViolation(f"{z} is an in-neighbour of both {tail} and {head}")
        rows[z] = tuple(sorted(keep if w == gone else w for w in rows[z]))
    rows[keep] = tuple(w for w in rows[head] if w != tail)
    rows[gone] = ()
    return ContractionRecord(tail, head, keep, tuple(z for z in tail_ins if z != head))


def lift_contraction(cert: SubdivisionCertificate, rec: ContractionRecord) -> SubdivisionCertificate:
    """A certificate on the contracted graph, lifted to the graph before.

    When two or more arcs enter the merged vertex and all come from the
    tail's in-neighbours, the tail takes over its role and the head is
    spliced onto its out-arc.  Otherwise the head takes the role and the
    tail is inserted on the (at most one) arc entering from a tail
    in-neighbour.
    """
    m = rec.keep
    if m not in cert.vertices():
        return cert
    entering = [p[p.index(m) - 1] for p in cert.paths.values() if m in p[1:]]
    via_tail = sum(z in rec.tail_ins for z in entering)
    if len(entering) >= 2 and via_tail == len(entering):
        role, before, after = rec.tail, (), (rec.head,)
    elif via_tail <= 1:
        role, before, after = rec.head, (rec.tail,), ()
    else:
        raise InvariantViolation(f"{via_tail} of the {len(entering)} arcs into {m} come from the tail's in-neighbours")

    def lift(p: Path) -> Path:
        if m not in p:
            return p
        i = p.index(m)
        pre = before if i > 0 and p[i - 1] in rec.tail_ins else ()
        post = after if i < len(p) - 1 else ()
        return p[:i] + pre + (role,) + post + p[i + 1:]

    return SubdivisionCertificate(
        branch={pv: role if hv == m else hv for pv, hv in cert.branch.items()},
        paths={key: lift(p) for key, p in cert.paths.items()},
    )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_certificate(host: Digraph, pattern: Digraph, cert: SubdivisionCertificate) -> ValidationReport:
    """Check every certificate invariant; report the first violation.

    Never raises: malformed input is just an invalid certificate.
    """
    try:
        branch = cert.branch
        if sorted(branch) != list(range(pattern.n)):
            return ValidationReport(False, "branch arity mismatch")
        images = list(branch.values())
        if len(set(images)) != len(images):
            return ValidationReport(False, "branch map not injective")
        if not all(0 <= w < host.n for w in images):
            return ValidationReport(False, "branch image out of range")

        pattern_arcs = set(pattern.arcs())
        if set(cert.paths) != pattern_arcs:
            return ValidationReport(False, "path set does not match pattern arcs")

        image_set = set(images)
        seen_internal: set[int] = set()
        for (x, y), p in sorted(cert.paths.items()):
            if len(p) < 2:
                return ValidationReport(False, f"path for ({x}, {y}) shorter than one arc")
            if p[0] != branch[x] or p[-1] != branch[y]:
                return ValidationReport(False, f"path for ({x}, {y}) has wrong endpoints")
            if len(set(p)) != len(p):
                return ValidationReport(False, f"path for ({x}, {y}) repeats a vertex")
            for i in range(len(p) - 1):
                if not (0 <= p[i] < host.n and 0 <= p[i + 1] < host.n) or not host.has_arc(p[i], p[i + 1]):
                    return ValidationReport(False, f"arc absent: ({p[i]}, {p[i + 1]})")
            inner = set(p[1:-1])
            if inner & image_set:
                return ValidationReport(False, f"path for ({x}, {y}) passes through a branch vertex")
            if inner & seen_internal:
                return ValidationReport(False, "internal overlap")
            seen_internal |= inner
        return ValidationReport(True)
    except Exception as exc:  # malformed certificates must not throw
        return ValidationReport(False, f"malformed certificate: {exc}")


def require_valid(host: Digraph, pattern: Digraph, cert: SubdivisionCertificate,
                  what: str) -> SubdivisionCertificate:
    """The gate every finder's answer passes: ``cert`` itself when it is
    valid, else ``InvariantViolation`` naming ``what`` and the first
    violation."""
    report = validate_certificate(host, pattern, cert)
    if not report:
        raise InvariantViolation(f"{what} invalid: {report.violation}")
    return cert


# ---------------------------------------------------------------------------
# automorphisms and symmetry pruning
# ---------------------------------------------------------------------------

_AUTO_LIMIT = 8


def automorphisms(pattern: Digraph) -> list[tuple[int, ...]]:
    """All arc-preserving vertex permutations, in lexicographic order.

    Backtracking places ``perm[0], perm[1], ...`` in ascending order,
    keeps only images with the same (out, in) degrees, and checks each
    pattern arc as soon as its later endpoint is placed.  Only used for
    patterns with at most 8 vertices; larger patterns get the identity
    alone.
    """
    n = pattern.n
    if n > _AUTO_LIMIT:
        return [tuple(range(n))]
    degs = [(pattern.out_degree(v), pattern.in_degree(v)) for v in pattern.vertices()]
    closing = _arcs_by_later_end(pattern)
    perm: list[int] = []
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(perm))
            return
        for w in range(n):
            if used[w] or degs[w] != degs[i]:
                continue
            perm.append(w)
            if all(pattern.has_arc(perm[u], perm[v]) for u, v in closing[i]):
                used[w] = True
                extend(i + 1)
                used[w] = False
            perm.pop()

    extend(0)
    return out


def _arcs_by_later_end(pattern: Digraph) -> list[list[tuple[int, int]]]:
    """Per pattern vertex v: the arcs whose larger endpoint is v, sorted;
    a search placing vertices in id order can check them once v is placed."""
    closing: list[list[tuple[int, int]]] = [[] for _ in pattern.vertices()]
    for x, y in pattern.arcs():
        closing[max(x, y)].append((x, y))
    return closing


def _orbit_floors(autos: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Per pattern vertex m: the earlier vertices whose images must be
    smaller than m's for the branch tuple to be orbit-minimal.

    Composing a valid branch map with a pattern automorphism yields
    another valid branch map of the same subdivision, so only the
    lexicographically first tuple of each orbit needs to be explored.
    For an injective tuple, ``assignment∘σ`` first differs from
    ``assignment`` at σ's first moved point i, where it holds
    ``assignment[σ(i)]`` with σ(i) > i; so the tuple is orbit-minimal
    iff ``assignment[i] < assignment[σ(i)]`` for every σ, and that test
    is decided as soon as vertex σ(i) is placed.
    """
    floors: list[set[int]] = [set() for _ in range(n)]
    for sigma in autos:
        moved = next((i for i in range(n) if sigma[i] != i), None)
        if moved is not None:
            floors[sigma[moved]].add(moved)
    return [tuple(sorted(f)) for f in floors]


# ---------------------------------------------------------------------------
# the backtracking search
# ---------------------------------------------------------------------------

def _cycle_needs(pattern: Digraph) -> list[int]:
    """Per pattern vertex: how many pairwise internally disjoint pattern
    cycles pass through it.  Subdivisions preserve this, so host images
    must support at least as many."""
    return [
        _menger._disjoint_cycle_flow(pattern, x, pattern.n + 1) for x in pattern.vertices()
    ]


def contains_subdivision(
    host: Digraph,
    pattern: Digraph,
    budget: SearchBudget | int | None = None,
) -> SubdivisionCertificate | None:
    """Certificate for a pattern subdivision in the host, or ``None``.

    Branch vertices are tried in increasing host id; pattern arcs are
    embedded in a fixed order grouping each pattern vertex's arcs
    together, each by a shortest-first simple dipath search that
    backtracks across earlier arcs.  ``None`` means the search space was
    exhausted.  Determinism: the certificate depends only on the inputs.

    Candidate images are pre-filtered by degrees and by disjoint-cycle
    counts (a pattern vertex lying on k mutually disjoint pattern cycles
    needs a host image on k mutually disjoint host cycles).  Every
    partial branch assignment is pruned twice before it is extended:
    by pattern symmetry (it must be able to complete to the
    lexicographically first tuple of its orbit under the pattern's
    automorphisms) and by reachability (each pattern arc whose endpoints
    are both placed needs a host dipath avoiding the other images placed
    so far).  Both only cut subtrees in which every full assignment would
    be rejected before a path is laid, so the first certificate found is
    the same as without them.  A reachability lookahead over all
    remaining arcs also prunes doomed partial path embeddings.  Both
    checks and the path search run on int bitmasks of the host vertices
    placed or occupied; each check takes one :func:`_closure` per
    distinct source.
    """
    budget = as_budget(budget)
    if pattern.n == 0:
        return SubdivisionCertificate()
    if host.n < pattern.n:
        return None

    floors = _orbit_floors(automorphisms(pattern), pattern.n)
    p_arcs = sorted(pattern.arcs(), key=lambda arc: (max(arc), arc))
    closing = _arcs_by_later_end(pattern)
    need = [(pattern.out_degree(v), pattern.in_degree(v)) for v in pattern.vertices()]
    cycle_need = _cycle_needs(pattern)
    candidates = []
    for v in pattern.vertices():
        pool = [
            w
            for w in host.vertices()
            if host.out_degree(w) >= need[v][0] and host.in_degree(w) >= need[v][1]
        ]
        if cycle_need[v] >= 2:
            pool = [w for w in pool if _menger._disjoint_cycle_flow(host, w, cycle_need[v]) >= cycle_need[v]]
        if not pool:
            return None
        candidates.append(pool)

    out_mask, in_mask = _arc_masks(host)
    assignment: list[int] = []

    def assign(depth: int, placed: int) -> SubdivisionCertificate | None:
        if depth == pattern.n:
            return embed_arcs(0, {}, placed)
        floor = max((assignment[i] for i in floors[depth]), default=-1)
        for w in candidates[depth]:
            if placed >> w & 1 or w < floor:
                continue
            budget.charge(1, phase="branch", depth=depth)
            assignment.append(w)
            now = placed | 1 << w
            if reachable(depth, now):
                found = assign(depth + 1, now)
                if found is not None:
                    return found
            assignment.pop()
        return None

    def reachable(depth: int, placed: int) -> bool:
        """Each arc closed by placing ``depth`` has a host dipath that
        avoids the other images placed so far (a host arc at no cost)."""
        closures: dict[int, int] = {}
        for x, y in closing[depth]:
            s, t = assignment[x], assignment[y]
            if out_mask[s] >> t & 1:
                continue
            budget.charge(1, phase="lookahead")
            if s not in closures:
                closures[s] = _closure(out_mask, s, placed)
            if not closures[s] & in_mask[t]:
                return False
        return True

    def viable(idx: int, occupied: int) -> bool:
        """Every remaining arc must still admit some dipath on its own."""
        closures: dict[int, int] = {}
        for j in range(idx, len(p_arcs)):
            x, y = p_arcs[j]
            s, t = assignment[x], assignment[y]
            budget.charge(1, phase="lookahead")
            if s not in closures:
                closures[s] = _closure(out_mask, s, occupied)
            if not closures[s] & in_mask[t]:
                return False
        return True

    def embed_arcs(idx: int, chosen: dict, occupied: int) -> SubdivisionCertificate | None:
        if idx == len(p_arcs):
            return SubdivisionCertificate(
                branch={v: assignment[v] for v in range(pattern.n)},
                paths=dict(chosen),
            )
        if not viable(idx, occupied):
            return None
        x, y = p_arcs[idx]
        s, t = assignment[x], assignment[y]
        for path in _simple_paths_shortest_first(out_mask, in_mask, s, t, occupied, budget):
            chosen[(x, y)] = path
            found = embed_arcs(idx + 1, chosen, occupied | sum(1 << v for v in path[1:-1]))
            if found is not None:
                return found
            del chosen[(x, y)]
        return None

    return assign(0, 0)


def _arc_masks(host: Digraph) -> tuple[list[int], list[int]]:
    """Per host vertex: its out-neighbours and its in-neighbours, each
    as an int bitmask (bit w set for vertex w)."""
    out_mask = [sum(1 << w for w in host.out_nbrs(v)) for v in host.vertices()]
    in_mask = [sum(1 << w for w in host.in_nbrs(v)) for v in host.vertices()]
    return out_mask, in_mask


def _closure(out_mask: list[int], s: int, blocked: int) -> int:
    """Bitmask of the vertices reachable from ``s`` through vertices
    outside the ``blocked`` mask; ``s`` itself is always entered.

    For t != s, ``_closure(out_mask, s, blocked) & in_mask[t]`` is
    nonzero iff some s-t dipath has no internal vertex in ``blocked``,
    whether or not s and t are blocked themselves.  Each round ORs the
    out-rows of the frontier's vertices, lowest bit first.
    """
    allowed = ~blocked
    reach = frontier = 1 << s
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= out_mask[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach


def _simple_paths_shortest_first(out_mask: list[int], in_mask: list[int], s: int, t: int,
                                 occupied: int, budget: SearchBudget):
    """Yield simple s-t dipaths whose internal vertices avoid the
    ``occupied`` mask, shortest lengths first.

    Iterative deepening on the exact path length, pruned by reverse
    breadth-first levels from ``t``: ``near[r]`` masks the vertices that
    reach ``t`` in at most r steps through vertices outside ``occupied``.
    Children are taken lowest id first, so within one length paths come
    in lexicographic vertex order.
    """
    if s == t:
        return
    blocked = occupied & ~(1 << s | 1 << t)
    allowed = ~blocked
    near = [1 << t]
    frontier = near[0]
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= in_mask[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~near[-1]
        if frontier:
            near.append(near[-1] | frontier)
    first = next((r for r, reach in enumerate(near) if reach >> s & 1), None)
    if first is None:
        return
    last = len(near) - 1
    max_len = len(out_mask) - blocked.bit_count() - 1
    not_t = ~(1 << t)
    stack = [s]

    def dfs(u: int, remaining: int, on_path: int):
        budget.charge(1, phase="path", source=s, target=t)
        if remaining == 0:  # near[0] holds only t, so u is t
            yield tuple(stack)
            return
        kids = out_mask[u] & near[min(remaining - 1, last)] & ~on_path
        if remaining != 1:
            kids &= not_t
        while kids:
            low = kids & -kids
            kids ^= low
            stack.append(low.bit_length() - 1)
            yield from dfs(stack[-1], remaining - 1, on_path | low)
            stack.pop()

    for length in range(first, max_len + 1):
        yield from dfs(s, length, 1 << s)


def as_budget(budget: SearchBudget | int | None) -> SearchBudget:
    """The one coercion of a ``budget=`` argument: ``None`` gets
    ``DEFAULT_BUDGET`` nodes, an int that many (0 means none at all; a
    negative int raises ``BadParams``), and a ``SearchBudget`` is shared
    as is."""
    if budget is None:
        return SearchBudget()
    if isinstance(budget, int):
        if budget < 0:
            raise BadParams(f"budget {budget} is negative")
        return SearchBudget(max_nodes=budget)
    return budget


# ---------------------------------------------------------------------------
# even directed cycles
# ---------------------------------------------------------------------------

def has_even_dicycle(d: Digraph, budget: SearchBudget | int | None = None) -> bool:
    """True iff some directed cycle of even length exists.

    Digons are found immediately; otherwise simple cycles are
    enumerated exhaustively (each rooted at its minimum vertex) under
    the node budget.
    """
    budget = as_budget(budget)
    return has_digon(d) or any(_even_cycle_dfs(d, root, budget) for root in d.vertices())


def _even_cycle_dfs(d: Digraph, root: int, budget: SearchBudget) -> bool:
    """Depth-first walk over the simple paths from ``root`` through larger
    vertices, one out-row iterator per path vertex; True when one of them
    closes an even cycle at ``root``."""
    path = [root]
    on_path = {root}
    rows = [iter(d.out_nbrs(root))]
    while rows:
        for v in rows[-1]:
            budget.charge(1, phase="even-cycle", root=root)
            if v == root:
                if len(path) % 2 == 0:
                    return True
                continue
            if v < root or v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            rows.append(iter(d.out_nbrs(v)))
            break
        else:
            rows.pop()
            on_path.discard(path.pop())
    return False
