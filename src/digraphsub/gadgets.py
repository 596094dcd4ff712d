"""Gadgets, alternating paths and gadget chains.

This is the constructive machinery behind the oriented-cycle finder.
Three kinds of local structure (a long cycle through an arc, a dipath
whose every vertex dominates a common head, and two long dipaths merging
at a common tail) hang off the arcs of a *chain*; alternating paths are
threaded through the chain, and two strong alternating paths wired head
to tail span a subdivision of the alternating source/sink cycle
``C_{a,b}``.

Everything in here is a pure function over immutable values.  Each
constructor re-checks its output's structural invariants (an invalid
alternating path is a bug, never a return value), and the chain-closure
routine validates its certificate against the target pattern before
returning it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import Path, bfs_path, build_digraph, pattern_cab
from .cycle_embed import certificate_from_cycle
from .errors import (
    BadParams,
    BadStar,
    BadTarget,
    ChainTooPoor,
    ClosureInvalid,
    DegeneratePattern,
    Disjoint,
    EndpointMismatch,
    InvariantViolation,
    OverlapViolation,
    WrongKind,
)
from .oracle import SubdivisionCertificate, ValidationReport


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CabParams:
    """All derived constants for one (a, b) target, from the closed forms.

    g is the working girth floor, k the out-degree level the finder
    trims to, h and d the arborescence depth/width for the merge-gadget
    search.  The chain-goodness bounds below are all expressed in terms
    of these.
    """

    a: int
    b: int
    g: int = field(init=False)
    k: int = field(init=False)
    h: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        if self.a < 2 or self.b < 1:
            raise BadParams(f"need a >= 2 and b >= 1, got ({self.a}, {self.b})")
        g = 4 * self.b**2
        object.__setattr__(self, "g", g)
        object.__setattr__(
            self, "k", 12 * self.b**2 * (4 * g + 3) ** 2 * (self.a + 3) * (self.b + 1)
        )
        object.__setattr__(self, "h", 4 * g + 2)
        object.__setattr__(
            self, "d", 2 * self.b * (4 * g + 3) * (self.a + 3) * (self.b + 1)
        )

    @property
    def max_gadget_size(self) -> int:
        return (8 * self.g + 6) * (2 * self.b - 1)

    @property
    def a2_gap(self) -> int:
        """Longest allowed run of gadget-free spine arcs in a good chain."""
        return (4 * self.g + 3) * (2 * self.b - 1)

    @property
    def tail_window(self) -> int:
        """Spine length of the chain tail kept hot for closures."""
        return self.a2_gap * (self.a + 3) * (self.b + 1)


# ---------------------------------------------------------------------------
# gadgets
# ---------------------------------------------------------------------------

class GadgetKind(Enum):
    TRIVIAL = "trivial"
    TYPE_I = "cycle"
    TYPE_II_BASIC = "dominating-basic"
    TYPE_II_EXTENDED = "dominating-extended"
    TYPE_III = "merge"


FIRST_TO_SECOND = "first_to_second"
BACK_ARC = "back_arc"


@dataclass(frozen=True)
class Gadget:
    """Local structure attached to an arc (p, q).

    kind TYPE_I:  ``cycle`` is the full directed cycle, listed from p,
        so cycle[0] == p, cycle[1] == q and the closing arc returns to p.
    kind TYPE_II_BASIC: ``p1`` runs r -> .. -> p and every vertex of it
        has an arc to q.
    kind TYPE_II_EXTENDED: additionally ``p2`` runs z -> .. -> r, and
        ``link`` records which hook-up clause holds: ("first_to_second",)
        for the arc (z, second vertex of p1), or ("back_arc", w) for an
        arc from w on p1 to z.
    kind TYPE_III: ``p1`` runs p -> .. -> r and ``p2`` runs q -> .. -> r.
    """

    kind: GadgetKind
    p: int
    q: int
    r: int | None = None
    cycle: Path | None = None
    p1: Path | None = None
    p2: Path | None = None
    link: tuple | None = None

    def vertices(self) -> frozenset[int]:
        """Every vertex of the gadget, built on the first call and kept."""
        vs = self.__dict__.get("_vertices")
        if vs is None:
            vs = frozenset((self.p, self.q, *(self.cycle or ()), *(self.p1 or ()), *(self.p2 or ())))
            object.__setattr__(self, "_vertices", vs)
        return vs

    def arcs(self) -> set[tuple[int, int]]:
        """Arc set the definition of this gadget kind requires in the host."""
        if self.kind is GadgetKind.TRIVIAL:
            return {(self.p, self.q)}
        if self.kind is GadgetKind.TYPE_I:
            cyc = self.cycle
            return set(zip(cyc, cyc[1:])) | {(cyc[-1], cyc[0])}
        if self.kind is GadgetKind.TYPE_III:
            return (
                {(self.p, self.q)}
                | set(zip(self.p1, self.p1[1:]))
                | set(zip(self.p2, self.p2[1:]))
            )
        arcs = set(zip(self.p1, self.p1[1:]))
        arcs |= {(x, self.q) for x in self.p1}
        if self.kind is GadgetKind.TYPE_II_EXTENDED:
            arcs |= set(zip(self.p2, self.p2[1:]))
            if self.link[0] == FIRST_TO_SECOND:
                arcs.add((self.p2[0], self.p1[1]))
            else:
                arcs.add((self.link[1], self.p2[0]))
        return arcs


def trivial_gadget(p: int, q: int) -> Gadget:
    return Gadget(kind=GadgetKind.TRIVIAL, p=p, q=q)


def validate_gadget(host, gadget: Gadget, b: int, g: int) -> ValidationReport:
    """Check the kind-specific invariants of ``gadget`` against ``host``."""

    def fail(msg: str) -> ValidationReport:
        return ValidationReport(False, msg)

    if gadget.p == gadget.q:
        return fail("p equals q")
    for u, v in gadget.arcs():
        if not host.has_arc(u, v):
            return fail(f"arc absent: ({u}, {v})")

    k = gadget.kind
    if k is GadgetKind.TRIVIAL:
        return ValidationReport(True)

    if k is GadgetKind.TYPE_I:
        cyc = gadget.cycle
        if not cyc or cyc[0] != gadget.p or cyc[1] != gadget.q:
            return fail("cycle must start p, q")
        if len(set(cyc)) != len(cyc):
            return fail("cycle repeats a vertex")
        if len(cyc) < g:
            return fail(f"cycle length {len(cyc)} below {g}")
        return ValidationReport(True)

    if k in (GadgetKind.TYPE_II_BASIC, GadgetKind.TYPE_II_EXTENDED):
        p1 = gadget.p1
        if not p1 or p1[0] != gadget.r or p1[-1] != gadget.p:
            return fail("P1 must run r .. p")
        if len(set(p1)) != len(p1):
            return fail("P1 repeats a vertex")
        if len(p1) - 1 < 2 * b * b + b - 2:
            return fail("P1 too short")
        # reached only on a host with the loop (q, q), which the unchecked Digraph(n, rows) accepts
        if gadget.q in p1:
            return fail("q lies on P1")
        if k is GadgetKind.TYPE_II_BASIC:
            return ValidationReport(True)
        p2 = gadget.p2
        if not p2 or p2[-1] != gadget.r:
            return fail("P2 must end at r")
        if len(set(p2)) != len(p2):
            return fail("P2 repeats a vertex")
        if len(p2) - 1 < b:
            return fail("P2 too short")
        if set(p1) & set(p2) != {gadget.r}:
            return fail("P1 and P2 must meet only at r")
        if gadget.q in p2:
            return fail("q lies on P2")
        if gadget.link is None or gadget.link[0] not in (FIRST_TO_SECOND, BACK_ARC):
            return fail("extended gadget needs a link clause")
        if gadget.link[0] == BACK_ARC:
            w = gadget.link[1]
            if w not in p1 or w == gadget.r:
                return fail("back-arc tail must lie on P1 away from r")
        return ValidationReport(True)

    # TYPE_III
    p1, p2 = gadget.p1, gadget.p2
    if not p1 or p1[0] != gadget.p or p1[-1] != gadget.r:
        return fail("P1 must run p .. r")
    if not p2 or p2[0] != gadget.q or p2[-1] != gadget.r:
        return fail("P2 must run q .. r")
    if len(set(p1)) != len(p1) or len(set(p2)) != len(p2):
        return fail("spoke repeats a vertex")
    if len(p1) - 1 < 2 * b - 1:
        return fail("P1 too short")
    if len(p2) - 1 < 2 * b - 1:
        return fail("P2 too short")
    if set(p1) & set(p2) != {gadget.r}:
        return fail("spokes must meet only at r")
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# alternating paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlternatingPath:
    """Oriented path of dipaths Q_i (s_i -> t_i) and Q'_i (s_{i+1} -> t_i).

    Interior pieces Q_2..Q_{a-1} and all Q'_i are at least b long; the
    path is *strong* when Q_1 and Q_a are as well.  Zero-length end
    pieces are single-vertex tuples.
    The pieces are the whole path: s_i and t_i are read off Q_i's ends.
    """

    q_paths: tuple[Path, ...]
    qp_paths: tuple[Path, ...]
    strong: bool

    @property
    def s(self) -> tuple[int, ...]:
        return tuple(q[0] for q in self.q_paths)

    @property
    def t(self) -> tuple[int, ...]:
        return tuple(q[-1] for q in self.q_paths)

    @property
    def a(self) -> int:
        return len(self.q_paths)

    def walk(self) -> tuple[int, ...]:
        """Vertex sequence of the underlying oriented path, s_1 .. t_a."""
        seq = list(self.q_paths[0])
        for i in range(self.a - 1):
            seq.extend(reversed(self.qp_paths[i][:-1]))
            seq.extend(self.q_paths[i + 1][1:])
        return tuple(seq)

    def vertices(self) -> frozenset[int]:
        return frozenset(self.walk())


def make_alt_path(q_paths, qp_paths, b: int) -> AlternatingPath:
    """Assemble and structurally verify an alternating path.

    The strength flag is computed from the end-piece lengths.  Raises
    ``OverlapViolation`` if the pieces do not form an oriented path or an
    interior piece is too short; constructors in this module treat that
    as an internal error surfaced loudly.
    """
    q_paths = tuple(tuple(p) for p in q_paths)
    qp_paths = tuple(tuple(p) for p in qp_paths)
    a = len(q_paths)
    if not (len(qp_paths) == a - 1 and a >= 1):
        raise OverlapViolation("piece counts are inconsistent")
    for i in range(a - 1):
        if qp_paths[i][0] != q_paths[i + 1][0] or qp_paths[i][-1] != q_paths[i][-1]:
            raise OverlapViolation(f"Q'_{i + 1} does not run s_{i + 2} .. t_{i + 1}")
        if len(qp_paths[i]) - 1 < b:
            raise OverlapViolation(f"Q'_{i + 1} shorter than {b}")
    for i in range(1, a - 1):
        if len(q_paths[i]) - 1 < b:
            raise OverlapViolation(f"interior Q_{i + 1} shorter than {b}")
    strong = len(q_paths[0]) - 1 >= b and len(q_paths[-1]) - 1 >= b
    path = AlternatingPath(q_paths=q_paths, qp_paths=qp_paths, strong=strong)
    seq = path.walk()
    if len(set(seq)) != len(seq):
        raise OverlapViolation("pieces overlap outside their shared endpoints")
    return path


def validate_alternating_path(host, path: AlternatingPath, b: int) -> ValidationReport:
    """Full invariant check of an alternating path against a host."""
    try:
        rebuilt = make_alt_path(path.q_paths, path.qp_paths, b)
    except OverlapViolation as exc:
        return ValidationReport(False, str(exc))
    if rebuilt.strong != path.strong:
        return ValidationReport(False, "strength flag incorrect")
    for p in path.q_paths + path.qp_paths:
        for u, v in zip(p, p[1:]):
            if not host.has_arc(u, v):
                return ValidationReport(False, f"arc absent: ({u}, {v})")
    return ValidationReport(True)


def dipath_as_alt_path(path: Path, b: int) -> AlternatingPath:
    """Any dipath is a (1, b)-alternating path."""
    return make_alt_path((path,), (), b)


def _loop_alt_path(back: Path, b: int) -> AlternatingPath:
    """The (2, b)-alternating path whose Q_1 and Q_2 have length zero and
    whose one back piece Q'_1 is the dipath ``back``: s = t = (back[-1],
    back[0])."""
    return make_alt_path(((back[-1],), (back[0],)), (back,), b)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    """Spine dipath with non-trivial gadgets hanging on some of its arcs.

    ``gadgets`` maps an arc index i (the arc spine[i] -> spine[i+1]) to
    its gadget; indices absent from the map are plain arcs.  Gadgets
    meet the spine only at their own arc's endpoints and meet each other
    only on the spine.
    """

    spine: Path
    gadgets: dict[int, Gadget]

    @property
    def m(self) -> int:
        return len(self.spine) - 1

    def a2_indices(self) -> list[int]:
        return sorted(self.gadgets)

    def gadget_at(self, idx: int) -> Gadget:
        got = self.gadgets.get(idx)
        if got is not None:
            return got
        return trivial_gadget(self.spine[idx], self.spine[idx + 1])

    def vertex_set(self) -> frozenset[int]:
        """Spine and gadget vertices."""
        return frozenset(self.spine).union(*(g.vertices() for g in self.gadgets.values()))

    def subchain(self, i: int, j: int) -> "Chain":
        """Chain on spine[i..j] inheriting the gadgets of inner arcs."""
        if not (0 <= i < j <= self.m):
            raise BadParams(f"bad subchain range [{i}, {j}]")
        return Chain(
            spine=self.spine[i : j + 1],
            gadgets={idx - i: g for idx, g in self.gadgets.items() if i <= idx < j},
        )


def validate_chain(host, chain: Chain, b: int, g: int) -> ValidationReport:
    spine = chain.spine
    if len(set(spine)) != len(spine):
        return ValidationReport(False, "spine repeats a vertex")
    for u, v in zip(spine, spine[1:]):
        if not host.has_arc(u, v):
            return ValidationReport(False, f"spine arc absent: ({u}, {v})")
    spine_set = set(spine)
    items = sorted(chain.gadgets.items())
    for idx, gadget in items:
        if not (0 <= idx < chain.m):
            return ValidationReport(False, f"gadget index {idx} out of range")
        if gadget.kind not in (GadgetKind.TYPE_I, GadgetKind.TYPE_II_BASIC, GadgetKind.TYPE_III):
            return ValidationReport(False, f"kind {gadget.kind.value} not allowed on a chain")
        if gadget.p != spine[idx] or gadget.q != spine[idx + 1]:
            return ValidationReport(False, f"gadget at {idx} not anchored to its arc")
        rep = validate_gadget(host, gadget, b, g)
        if not rep:
            return ValidationReport(False, f"gadget at {idx}: {rep.violation}")
        if gadget.vertices() & spine_set != {spine[idx], spine[idx + 1]}:
            return ValidationReport(False, f"gadget at {idx} meets the spine off its arc")
    for pos, (idx, gadget) in enumerate(items):
        for jdx, other in items[pos + 1 :]:
            if (gadget.vertices() & other.vertices()) - spine_set:
                return ValidationReport(False, f"gadgets at {idx} and {jdx} overlap off the spine")
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# alternating paths out of gadgets
# ---------------------------------------------------------------------------

def base_alt_path(gadget: Gadget, b: int) -> AlternatingPath:
    """The canonical (2, b)-alternating path inside a cycle or dominating
    gadget: it starts and ends its first piece at p and finishes at q."""
    if gadget.kind is GadgetKind.TYPE_I:
        return _loop_alt_path(gadget.cycle[1:] + (gadget.p,), b)  # q .. p, the cycle minus (p, q)
    if gadget.kind in (GadgetKind.TYPE_II_BASIC, GadgetKind.TYPE_II_EXTENDED):
        return make_alt_path(((gadget.p,), (gadget.r, gadget.q)), (gadget.p1,), b)
    raise WrongKind(f"no base path for kind {gadget.kind.value}")


def reach_pq(gadget: Gadget, x: int) -> Path:
    """Shortest dipath inside the gadget from x to {p, q}.

    Meets {p, q} only at its end.  Not defined for merge gadgets, whose
    interior vertices cannot reach the designated pair.
    """
    if gadget.kind is GadgetKind.TYPE_III:
        raise WrongKind("merge gadgets do not reach back to (p, q)")
    if x not in gadget.vertices():
        raise BadTarget(f"{x} is not a gadget vertex")
    inside = build_digraph(1 + max(gadget.vertices()), gadget.arcs())
    walk = bfs_path(inside, x, (gadget.p, gadget.q))
    if walk is None:
        raise BadTarget(f"{x} cannot reach the designated pair inside the gadget")
    return walk


def extended_exit_path(gadget: Gadget, targets, b: int) -> AlternatingPath:
    """Alternating path through an extended dominating gadget that starts
    at p or q, ends in ``targets`` and meets each of {p, q} and the
    target set exactly once.

    ``targets`` is either a non-empty subset of P1's interior (endpoints
    p and r excluded), or a single vertex anywhere off {p, q}; the
    single-vertex form dispatches to the P2 side when needed.
    """
    if gadget.kind is not GadgetKind.TYPE_II_EXTENDED:
        raise WrongKind("exit paths need an extended dominating gadget")
    xs = frozenset(targets)
    if not xs:
        raise BadTarget("empty target set")
    if xs & {gadget.p, gadget.q}:
        raise BadTarget("targets may not include the designated pair")
    p1, p2 = gadget.p1, gadget.p2
    interior_p1 = frozenset(p1) - {gadget.p, gadget.r}

    if not xs <= interior_p1:
        if len(xs) != 1:
            raise BadTarget("multi-vertex targets must lie inside P1")
        (x,) = xs
        if x not in p2:
            raise BadTarget(f"{x} is not a gadget vertex off the pair")
        ix = p2.index(x)
        return _loop_alt_path(p2[ix:] + p1[1:], b)  # x .. r .. p

    z = p2[0]
    pos = {v: i for i, v in enumerate(p1)}

    if gadget.link[0] == FIRST_TO_SECOND:
        ix = min(pos[x] for x in xs)  # first target while walking from p1[1]
        x = p1[ix]
        qp = p2 + (gadget.q,)  # z .. r, q
        q2 = (z,) + p1[1 : ix + 1]  # z, p1[1] .. x
        return make_alt_path(((gadget.q,), q2), (qp,), b)

    w = gadget.link[1]
    if w == gadget.p:
        ix = min(pos[x] for x in xs)
        x = p1[ix]
        seq = (gadget.p,) + p2 + p1[1 : ix + 1]  # p, z .. r, p1[1] .. x
        return dipath_as_alt_path(seq, b)

    iw = pos[w]
    # target closest to w along the undirected P1; ties resolve toward r
    ix = min((abs(pos[x] - iw), pos[x]) for x in xs)[1]
    x = p1[ix]
    if iw <= ix:
        qp = (w,) + p2 + (gadget.q,)  # w, z .. r, q
        q2 = p1[iw : ix + 1]
        return make_alt_path(((gadget.q,), q2), (qp,), b)
    return _loop_alt_path(p1[ix : iw + 1] + p2 + (gadget.q,), b)  # x .. w, z .. r, q


# ---------------------------------------------------------------------------
# alternating paths along chains
# ---------------------------------------------------------------------------

def chain_alt_path(chain: Chain, a: int, b: int) -> AlternatingPath:
    """Strong (a, b)-alternating path from the first to the last spine
    vertex of a chain with at least a(b+1)-1 gadget-carrying arcs.

    Induction on a: the last gadget-carrying arc at least b+1 arcs from
    the spine's end supplies the final pieces, the subchain before it
    supplies the rest.
    """
    if a < 1:
        raise BadParams("a must be >= 1")
    a2 = chain.a2_indices()
    if len(a2) < a * (b + 1) - 1:
        raise ChainTooPoor(f"need {a * (b + 1) - 1} gadget arcs, have {len(a2)}")
    spine = chain.spine
    m = chain.m
    if a == 1:
        return dipath_as_alt_path(spine, b)

    j = max(idx for idx in a2 if idx <= m - b - 1)
    sub = chain.subchain(0, j)
    prior = chain_alt_path(sub, a - 1, b)
    gadget = chain.gadgets[j]

    if gadget.kind in (GadgetKind.TYPE_I, GadgetKind.TYPE_II_BASIC):
        base = base_alt_path(gadget, b)
        q_last = base.q_paths[1] + spine[j + 2 :]
        return make_alt_path(prior.q_paths + (q_last,), prior.qp_paths + base.qp_paths, b)

    # merge gadget: ride one spoke out to r, return along the other
    return _via_spokes(prior, gadget.p1[1:], gadget.p2, spine[j + 1 :], b)


def _via_spokes(path: AlternatingPath, out: Path, back: Path, last: Path, b: int) -> AlternatingPath:
    """``path`` with its last Q piece run on along ``out`` to a merge
    gadget's r, back down the other spoke ``back`` (r ends it) as a new
    Q', and on along ``last``, a final Q piece from back's first vertex."""
    return make_alt_path(path.q_paths[:-1] + (path.q_paths[-1] + out, last), path.qp_paths + (back,), b)


def join_alt_paths(host, r1: AlternatingPath, r2: AlternatingPath, b: int) -> SubdivisionCertificate:
    """Certificate for ``C_{a1+a2-2, b}`` spanned by two strong
    alternating paths of ``host`` wired head to tail.

    Requires s_1 of each to be the final t of the other and no further
    shared vertices.
    """
    if not (r1.strong and r2.strong):
        raise BadParams("both alternating paths must be strong")
    if r1.s[0] != r2.t[-1] or r2.s[0] != r1.t[-1]:
        raise EndpointMismatch("the two paths do not close up")
    junctions = {r1.s[0], r1.t[-1]}
    shared = r1.vertices() & r2.vertices()
    if shared != junctions:
        raise OverlapViolation(f"paths share {sorted(shared - junctions)} beyond the junctions")
    a = r1.a + r2.a - 2
    if a < 1:
        raise DegeneratePattern("joining two single-piece paths yields no sources")

    arcs = set()
    for path in (r1, r2):
        for piece in path.q_paths + path.qp_paths:
            arcs.update(zip(piece, piece[1:]))
    cert = certificate_from_cycle(arcs, pattern_cab(a, b), host)
    if cert is None:
        raise OverlapViolation("joined paths do not span the expected cycle")
    return cert


# ---------------------------------------------------------------------------
# gadget intersection
# ---------------------------------------------------------------------------

def gadget_intersection_path(g: Gadget, gstar: Gadget, b: int) -> AlternatingPath:
    """Alternating path from gstar's designated pair to g's, built out of
    an intersection between the two gadgets.

    ``gstar`` must be an extended dominating gadget whose designated
    pair avoids g entirely; ``g`` may be of any kind including trivial.
    The result starts at p or q of gstar, ends at p or q of g, and meets
    gstar's pair exactly once.  It also meets g's pair exactly once
    except in one corner (both of g's designated vertices inside gstar)
    where the guarantee weakens to: the end vertex is the only one of
    g's pair on the path, or the path ends at g.q with g.p appearing
    once inside it.  Chain closures remain sound under the weaker form.
    """
    if gstar.kind is not GadgetKind.TYPE_II_EXTENDED:
        raise BadStar("second gadget must be an extended dominating gadget")
    gv, sv = g.vertices(), gstar.vertices()
    if gstar.p in gv or gstar.q in gv:
        raise BadStar("gstar's designated pair must avoid the first gadget")
    inter = gv & sv
    if not inter:
        raise Disjoint("gadgets do not intersect")

    if g.kind is GadgetKind.TYPE_III:
        return _intersection_with_merge(g, gstar, inter, b)
    return _intersection_case_reachable(g, gstar, inter, b)


def _extend_last(path: AlternatingPath, tail: Path, b: int) -> AlternatingPath:
    """Append a dipath to the final piece of an alternating path."""
    if len(tail) == 1:
        return path
    if path.t[-1] != tail[0]:
        raise InvariantViolation("the appended dipath does not start at the path's end")
    return make_alt_path(path.q_paths[:-1] + (path.q_paths[-1] + tail[1:],), path.qp_paths, b)


def _intersection_case_reachable(g: Gadget, gstar: Gadget, inter, b: int) -> AlternatingPath:
    """g is trivial, a cycle gadget or a dominating gadget: every vertex
    of g reaches {p, q} inside g, so walk out of the intersection."""
    designated_in_star = {v for v in (g.q, g.p) if v in inter}

    candidates: list[Path] = []
    if designated_in_star:
        # a designated vertex inside gstar is its own zero-length walk;
        # trying q first keeps the result closure-safe even when both
        # designated vertices sit inside gstar
        candidates.extend((v,) for v in (g.q, g.p) if v in designated_in_star)
    else:
        best = None
        for x in sorted(inter):
            walk = reach_pq(g, x)
            if best is None or (len(walk), walk) < (len(best), best):
                best = walk
        candidates.append(best)

    weak = None
    for walk_out in candidates:
        # no catch: walk_out[0] is in gstar off its pair, and a shortest walk out meets gstar only there
        combined = _extend_last(extended_exit_path(gstar, {walk_out[0]}, b), walk_out, b)
        hits = combined.vertices() & {g.p, g.q}
        if hits == {combined.t[-1]}:
            return combined
        if combined.t[-1] == g.q:
            weak = combined
    # no raise: a candidate misses only with q in gstar, and then the q candidate, tried first, is kept
    return weak


def _intersection_with_merge(g: Gadget, gstar: Gadget, inter, b: int) -> AlternatingPath:
    """g is a merge gadget: its interior cannot walk back to {p, q}, so
    the construction rides g's spokes instead."""
    gv = g.vertices()
    spoke_of: dict[int, tuple[Path, int]] = {}
    for spoke in (g.p1, g.p2):
        for i, v in enumerate(spoke):
            spoke_of.setdefault(v, (spoke, i))
    # r belongs to both spokes; keep the p1 entry for determinism

    star_p1 = set(gstar.p1)

    # far intersection on gstar's P1: ride a spoke out and jump to gstar.q
    far = [
        v for v in inter
        if v in star_p1 and spoke_of[v][1] >= b - 1
    ]
    if far:
        spoke, i = min((spoke_of[v] for v in far), key=lambda si: (si[1], si[0]))
        return _loop_alt_path(spoke[: i + 1] + (gstar.q,), b)

    if not (inter & set(gstar.p2)):
        # intersection confined to the interior of gstar's P1
        exit_path = extended_exit_path(gstar, inter, b)
        x = exit_path.t[-1]
        if x in (g.p, g.q):
            return exit_path
        spoke, i = spoke_of[x]
        other = g.p2 if spoke is g.p1 else g.p1
        return _via_spokes(exit_path, spoke[i + 1 :], other, other[:1], b)

    # intersection reaches gstar's P2: cut the combined return path at
    # every vertex of g and keep one long clean component
    p2s = gstar.p2
    iw = max(i for i, v in enumerate(p2s) if v in gv)
    pstar = p2s[iw:] + gstar.p1[1:]  # w .. r*, then along P1 to p*
    components: list[Path] = []
    current = [pstar[0]]
    for v in pstar[1:]:
        if v in gv:
            components.append(tuple(current))
            current = [v]
        else:
            current.append(v)
    components.append(tuple(current))
    best = max(components, key=len)
    if len(best) - 1 < b:
        raise InvariantViolation("averaging bound failed; gadget invariants violated")
    u, v_last = best[0], best[-1]
    ret = best if v_last == gstar.p else best + (gstar.q,)
    spoke, i = spoke_of[u]
    return _loop_alt_path(spoke[: i + 1] + ret[1:], b)


# ---------------------------------------------------------------------------
# chain closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condition1:
    """The spine's last vertex sends an arc back into the first gadget."""

    x: int


@dataclass(frozen=True)
class Condition2:
    """A fresh extended dominating gadget hangs off the spine's last
    vertex and intersects the first gadget."""

    zstar: int
    gstar: Gadget


def close_chain(host, chain: Chain, closure, a: int, b: int) -> SubdivisionCertificate:
    """Certificate for ``C_{a,b}`` from a rich chain plus one closure event.

    The chain needs at least (a+3)(b+1)-2 gadget-carrying arcs.  The
    closure supplies an alternating path from the spine's last vertex
    back to the first gadget; extending it b spine arcs on both sides
    and threading a complementary strong path through the middle
    subchain wires the two into the target cycle.  The certificate is
    validated against the pattern before being returned.
    """
    need = (a + 3) * (b + 1) - 2
    a2 = chain.a2_indices()
    if len(a2) < need:
        raise ChainTooPoor(f"need {need} gadget arcs, have {len(a2)}")
    spine = chain.spine
    ell = chain.m
    if ell <= 2 * b + 1:
        raise ChainTooPoor("spine too short to carve out both end segments")
    z0, z1, zl = spine[0], spine[1], spine[-1]
    first = chain.gadget_at(0)

    rstar = _closure_alt_path(host, chain, closure, first, b)

    t_end = rstar.t[-1]
    s_begin = rstar.s[0]
    if t_end not in (z0, z1):
        raise ClosureInvalid("closure path misses the first spine arc")
    if t_end == z0 and z1 in rstar.vertices():
        raise ClosureInvalid("closure path covers both ends of the first spine arc")
    if s_begin != zl and zl in rstar.vertices():
        raise ClosureInvalid("closure path re-enters the spine's last vertex")

    prefix = spine[ell - b :]
    if s_begin != zl:
        prefix = prefix + (s_begin,)
    suffix = spine[spine.index(t_end) : b + 2]

    q_paths = list(rstar.q_paths)
    q_paths[0] = prefix[:-1] + q_paths[0]
    q_paths[-1] = tuple(q_paths[-1]) + suffix[1:]
    r1 = make_alt_path(q_paths, rstar.qp_paths, b)
    if not r1.strong:
        raise InvariantViolation("extended closure path must be strong")

    a2_count = a + 2 - rstar.a
    sub = chain.subchain(b + 1, ell - b)
    r2 = chain_alt_path(sub, a2_count, b)

    # r1.a + r2.a - 2 is a, and join_alt_paths validates against C_{a,b} on host
    return join_alt_paths(host, r1, r2, b)


def _closure_alt_path(host, chain: Chain, closure, first: Gadget, b: int) -> AlternatingPath:
    spine = chain.spine
    z0, z1, zl = spine[0], spine[1], spine[-1]

    if isinstance(closure, Condition2):
        gstar = closure.gstar
        if gstar.kind is not GadgetKind.TYPE_II_EXTENDED:
            raise ClosureInvalid("closure gadget must be an extended dominating gadget")
        if gstar.p != zl or gstar.q != closure.zstar:
            raise ClosureInvalid("closure gadget must hang off the spine's last vertex")
        chain_vs = chain.vertex_set()
        if closure.zstar in chain_vs:
            raise ClosureInvalid("closure head must be a fresh vertex")
        if not (first.vertices() & gstar.vertices()):
            raise ClosureInvalid("closure gadget misses the first gadget")
        if (chain_vs & gstar.vertices()) - first.vertices() - {zl}:
            raise ClosureInvalid("closure gadget touches the chain beyond the first gadget")
        rep = validate_gadget(host, gstar, b, 1)
        if not rep:
            raise ClosureInvalid(f"closure gadget invalid: {rep.violation}")
        try:
            return gadget_intersection_path(first, gstar, b)
        except (Disjoint, BadStar, OverlapViolation) as exc:
            raise ClosureInvalid(str(exc)) from exc

    if not isinstance(closure, Condition1):
        raise ClosureInvalid(f"unknown closure {closure!r}")
    x = closure.x
    if not host.has_arc(zl, x):
        raise ClosureInvalid(f"arc ({zl}, {x}) absent")
    if x not in first.vertices():
        raise ClosureInvalid(f"{x} is not on the first gadget")

    if x in (z0, z1):
        return dipath_as_alt_path((zl, x), b)
    if first.kind in (GadgetKind.TYPE_I, GadgetKind.TYPE_II_BASIC):
        walk = reach_pq(first, x)
        return dipath_as_alt_path((zl,) + walk, b)
    if first.kind is GadgetKind.TYPE_III:
        on_p1 = x in first.p1
        spoke = first.p1 if on_p1 else first.p2
        other = first.p2 if on_p1 else first.p1
        out = spoke[spoke.index(x) + 1 :]
        return _via_spokes(dipath_as_alt_path((zl, x), b), out, other, other[:1], b)
    raise ClosureInvalid("trivial first gadget offers no interior vertex")

