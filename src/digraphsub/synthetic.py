"""Synthetic hosts and gadget fixtures for randomized verification.

Builders here construct digraphs containing known planted structure:
single gadgets of each kind, chains with prescribed gadget density,
intersecting gadget pairs arranged to hit each branch of the
intersection analysis, chains with planted closure events, and hosts
consisting of two strong alternating paths wired into an oriented
cycle.  Every builder is deterministic given its ``random.Random``.
"""

from __future__ import annotations

import random

from .core import Arc, Digraph, Path, build_digraph
from .errors import BadParams
from .gadgets import (
    BACK_ARC,
    FIRST_TO_SECOND,
    AlternatingPath,
    Chain,
    Condition1,
    Condition2,
    Gadget,
    GadgetKind,
    make_alt_path,
)


class IdAllocator:
    """Hands out fresh dense vertex ids."""

    def __init__(self, start: int = 0):
        self.next_id = start

    def take(self, count: int) -> list[int]:
        out = list(range(self.next_id, self.next_id + count))
        self.next_id += count
        return out

    def one(self) -> int:
        return self.take(1)[0]


def arcs_of_path(path: Path) -> set[Arc]:
    return set(zip(path, path[1:]))


# ---------------------------------------------------------------------------
# single gadgets
# ---------------------------------------------------------------------------

def make_type_i(rng: random.Random, alloc: IdAllocator, b: int, g: int,
                p: int | None = None, q: int | None = None) -> tuple[set[Arc], Gadget]:
    p = alloc.one() if p is None else p
    q = alloc.one() if q is None else q
    extra = rng.randrange(0, g + 1)
    gadget = Gadget(kind=GadgetKind.TYPE_I, p=p, q=q, cycle=(p, q, *alloc.take(g - 2 + extra)))
    return gadget.arcs(), gadget


def make_type_ii_basic(rng: random.Random, alloc: IdAllocator, b: int,
                       p: int | None = None, q: int | None = None) -> tuple[set[Arc], Gadget]:
    p = alloc.one() if p is None else p
    q = alloc.one() if q is None else q
    length = 2 * b * b + b - 2 + rng.randrange(0, 2 * b + 1)
    inner = alloc.take(length)
    p1 = (*inner, p)  # r .. p
    gadget = Gadget(kind=GadgetKind.TYPE_II_BASIC, p=p, q=q, r=p1[0], p1=p1)
    return gadget.arcs(), gadget


def make_type_ii_extended(rng: random.Random, alloc: IdAllocator, b: int,
                          p: int | None = None, q: int | None = None,
                          link_kind: str | None = None) -> tuple[set[Arc], Gadget]:
    _, basic = make_type_ii_basic(rng, alloc, b, p, q)
    p1, r = basic.p1, basic.r
    p2 = (*alloc.take(b + rng.randrange(0, b + 1)), r)  # z .. r
    if link_kind is None:
        link_kind = rng.choice([FIRST_TO_SECOND, "back_arc_p", "back_arc_inner"])
    if link_kind == FIRST_TO_SECOND:
        link = (FIRST_TO_SECOND,)
    elif link_kind == "back_arc_p":
        link = (BACK_ARC, basic.p)
    else:
        link = (BACK_ARC, p1[rng.randrange(1, len(p1))])  # anywhere past r, possibly p
    gadget = Gadget(kind=GadgetKind.TYPE_II_EXTENDED, p=basic.p, q=basic.q,
                    r=r, p1=p1, p2=p2, link=link)
    return gadget.arcs(), gadget


def make_type_iii(rng: random.Random, alloc: IdAllocator, b: int,
                  p: int | None = None, q: int | None = None) -> tuple[set[Arc], Gadget]:
    p = alloc.one() if p is None else p
    q = alloc.one() if q is None else q
    r = alloc.one()
    p1 = (p, *alloc.take(2 * b - 2 + rng.randrange(0, b + 1)), r)
    p2 = (q, *alloc.take(2 * b - 2 + rng.randrange(0, b + 1)), r)
    gadget = Gadget(kind=GadgetKind.TYPE_III, p=p, q=q, r=r, p1=p1, p2=p2)
    return gadget.arcs(), gadget


_CHAIN_KINDS = (GadgetKind.TYPE_I, GadgetKind.TYPE_II_BASIC, GadgetKind.TYPE_III)


def make_gadget(rng: random.Random, alloc: IdAllocator, kind: GadgetKind,
                b: int, g: int, p: int | None = None, q: int | None = None):
    if kind is GadgetKind.TYPE_I:
        return make_type_i(rng, alloc, b, g, p, q)
    if kind is GadgetKind.TYPE_II_BASIC:
        return make_type_ii_basic(rng, alloc, b, p, q)
    if kind is GadgetKind.TYPE_II_EXTENDED:
        return make_type_ii_extended(rng, alloc, b, p, q)
    if kind is GadgetKind.TYPE_III:
        return make_type_iii(rng, alloc, b, p, q)
    p = alloc.one() if p is None else p
    q = alloc.one() if q is None else q
    gadget = Gadget(kind=GadgetKind.TRIVIAL, p=p, q=q)
    return gadget.arcs(), gadget


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

_MAX_GAP = 3


def random_chain(rng: random.Random, alloc: IdAllocator, b: int, g: int,
                 n_gadget_arcs: int) -> tuple[set[Arc], Chain]:
    """Chain with ``n_gadget_arcs`` non-trivial gadgets of random kinds.

    The first spine arc carries a gadget; gaps of 1.._MAX_GAP plain arcs
    separate the rest.  A short plain tail keeps the last spine vertex
    clear of any gadget.
    """
    spine = [alloc.one()]
    arcs: set[Arc] = set()
    gadget_positions: list[int] = []
    remaining = n_gadget_arcs
    while remaining > 0:
        if gadget_positions:
            for _ in range(rng.randrange(1, _MAX_GAP + 1)):
                nxt = alloc.one()
                arcs.add((spine[-1], nxt))
                spine.append(nxt)
        gadget_positions.append(len(spine) - 1)
        nxt = alloc.one()
        arcs.add((spine[-1], nxt))
        spine.append(nxt)
        remaining -= 1
    for _ in range(rng.randrange(1, _MAX_GAP + 1)):
        nxt = alloc.one()
        arcs.add((spine[-1], nxt))
        spine.append(nxt)

    gadgets: dict[int, Gadget] = {}
    for idx in gadget_positions:
        kind = rng.choice(_CHAIN_KINDS)
        g_arcs, gadget = make_gadget(rng, alloc, kind, b, g, p=spine[idx], q=spine[idx + 1])
        arcs |= g_arcs
        gadgets[idx] = gadget
    return arcs, Chain(spine=tuple(spine), gadgets=gadgets)


def chain_closure_fixture(rng: random.Random, a: int, b: int, g: int,
                          condition: int) -> tuple[Digraph, Chain, object]:
    """Chain rich enough to close, plus a planted closure event."""
    alloc = IdAllocator()
    need = (a + 3) * (b + 1) - 2
    arcs, chain = random_chain(rng, alloc, b, g, need + rng.randrange(0, 3))
    zl = chain.spine[-1]
    first = chain.gadget_at(0)

    if condition == 1:
        interior = sorted(first.vertices())
        x = rng.choice(interior)
        arcs.add((zl, x))
        closure: object = Condition1(x=x)
    else:
        zstar = alloc.one()
        star_arcs, gstar = make_type_ii_extended(rng, alloc, b, p=zl, q=zstar)
        arcs |= star_arcs
        # plant one intersection: splice a vertex of the first gadget
        # into gstar's long dominating path
        anchor_choices = sorted(first.vertices() - {chain.spine[0], chain.spine[1]})
        if not anchor_choices:
            anchor_choices = [chain.spine[1]]
        anchor = rng.choice(anchor_choices)
        inner = gstar.p1[:-1]
        victim = inner[rng.randrange(len(inner))]
        arcs, gstar = _substitute(arcs, gstar, victim, anchor)
        closure = Condition2(zstar=zstar, gstar=gstar)

    host = build_digraph(alloc.next_id, arcs)
    return host, chain, closure


# ---------------------------------------------------------------------------
# intersecting gadget pairs
# ---------------------------------------------------------------------------

def _substitute(arcs: set[Arc], gadget: Gadget, old: int, new: int) -> tuple[set[Arc], Gadget]:
    """Rename one vertex inside a gadget and its arc set."""

    def sub_v(v):
        return new if v == old else v

    def sub_path(path):
        return None if path is None else tuple(sub_v(v) for v in path)

    arcs = {(sub_v(u), sub_v(v)) for u, v in arcs}
    link = gadget.link
    if link is not None and link[0] == BACK_ARC:
        link = (BACK_ARC, sub_v(link[1]))
    return arcs, Gadget(
        kind=gadget.kind, p=sub_v(gadget.p), q=sub_v(gadget.q),
        r=None if gadget.r is None else sub_v(gadget.r),
        cycle=sub_path(gadget.cycle), p1=sub_path(gadget.p1),
        p2=sub_path(gadget.p2), link=link,
    )


def intersecting_pair(rng: random.Random, b: int, g: int, case: str) -> tuple[Digraph, Gadget, Gadget]:
    """Two gadgets sharing planted vertices, arranged per ``case``.

    case "reachable": the first gadget is trivial, a cycle or a basic
        dominating gadget and intersects the second anywhere.
    case "merge-far": first gadget is a merge gadget with a shared
        vertex deep on a spoke (distance >= b-1 from its heads).
    case "merge-near": merge gadget, all shared vertices within b-2 of
        the heads and confined to the second gadget's dominating path.
    case "merge-return": merge gadget with a shared vertex on the second
        gadget's auxiliary path.
    """
    alloc = IdAllocator()
    star_arcs, gstar = make_type_ii_extended(rng, alloc, b)

    if case == "reachable":
        kind = rng.choice([GadgetKind.TRIVIAL, GadgetKind.TYPE_I, GadgetKind.TYPE_II_BASIC])
        g_arcs, gg = make_gadget(rng, alloc, kind, b, g)
        victims = list(gstar.p1[1:-1]) + list(gstar.p2[:-1])
        victim = rng.choice(sorted(victims))
        anchors = sorted(gg.vertices())
        anchor = rng.choice(anchors)
    else:
        g_arcs, gg = make_type_iii(rng, alloc, b)
        if case == "merge-far":
            spoke = gg.p1 if rng.random() < 0.5 else gg.p2
            anchor = spoke[rng.randrange(b - 1, len(spoke))] if b > 1 else spoke[rng.randrange(len(spoke))]
            victim = gstar.p1[rng.randrange(0, len(gstar.p1) - 1)]
        elif case == "merge-near":
            if b == 1:
                raise BadParams("merge-near needs b >= 2")
            spoke = gg.p1 if rng.random() < 0.5 else gg.p2
            anchor = spoke[rng.randrange(0, b - 1)]
            victim = gstar.p1[rng.randrange(1, len(gstar.p1) - 1)]
        else:  # merge-return
            spoke = gg.p1 if rng.random() < 0.5 else gg.p2
            hi = min(b - 1, len(spoke) - 1) if b > 1 else len(spoke)
            anchor = spoke[rng.randrange(0, max(hi, 1))]
            victim = gstar.p2[rng.randrange(0, len(gstar.p2) - 1)]

    star_arcs, gstar = _substitute(star_arcs, gstar, victim, anchor)
    host = build_digraph(alloc.next_id, star_arcs | g_arcs)
    return host, gg, gstar


# ---------------------------------------------------------------------------
# wired alternating-path hosts
# ---------------------------------------------------------------------------

def random_strong_alt_path(rng: random.Random, alloc: IdAllocator, a: int, b: int,
                           start: int, end: int) -> tuple[set[Arc], AlternatingPath]:
    """Strong (a, b)-alternating path from ``start`` to ``end`` on fresh
    interior vertices, with piece lengths in [b, 2b+1]."""

    def fresh_piece(u: int, v: int) -> Path:
        return (u, *alloc.take(b - 1 + rng.randrange(0, b + 2)), v)

    s = [start] + [alloc.one() for _ in range(a - 1)]
    t = [alloc.one() for _ in range(a - 1)] + [end]
    q_paths = [fresh_piece(s[i], t[i]) for i in range(a)]
    qp_paths = [fresh_piece(s[i + 1], t[i]) for i in range(a - 1)]
    arcs: set[Arc] = set()
    for piece in q_paths + qp_paths:
        arcs |= arcs_of_path(piece)
    return arcs, make_alt_path(q_paths, qp_paths, b)


def wired_cycle_host(rng: random.Random, a1: int, a2: int, b: int) -> tuple[Digraph, AlternatingPath, AlternatingPath]:
    """Host spanned by two strong alternating paths wired head to tail.

    The union is an oriented cycle with a1 + a2 - 2 sources whose blocks
    all have length at least b.
    """
    alloc = IdAllocator()
    j1, j2 = alloc.take(2)
    arcs1, r1 = random_strong_alt_path(rng, alloc, a1, b, start=j1, end=j2)
    arcs2, r2 = random_strong_alt_path(rng, alloc, a2, b, start=j2, end=j1)
    host = build_digraph(alloc.next_id, arcs1 | arcs2)
    return host, r1, r2


# ---------------------------------------------------------------------------
# hosts that drive the chain machinery end to end (feasible at b = 1)
# ---------------------------------------------------------------------------

def ring_of_cycle_gadgets(m: int) -> Digraph:
    """Directed ring where every arc rides its own 4-cycle.

    Girth 4 for m >= 4, so the a=2, b=1 finder can grow a chain of cycle
    gadgets all the way around, a spine of m - 1 arcs.  It closes the
    ring with the wrap arc only for m >= 192: a closure must land on the
    chain's old part, before the last ``tail_window`` (190) spine arcs,
    so for 4 <= m <= 191 it returns ``NotFound("degree-below-threshold")``.
    """
    arcs = []
    nxt = m
    for i in range(m):
        j = (i + 1) % m
        arcs.append((i, j))
        x, y = nxt, nxt + 1
        nxt += 2
        arcs += [(j, x), (x, y), (y, i)]
    return build_digraph(nxt, arcs)


def ring_of_dominating_gadgets(m: int) -> Digraph:
    """Directed ring where every arc carries an in-neighbour ladder.

    No short cycles exist, so the walks at each ring arc terminate in
    extended dominating gadgets; the chain closes with the wrap arc.
    """
    arcs = []
    nxt = m
    for i in range(m):
        j = (i + 1) % m
        arcs.append((i, j))
        z, w = nxt, nxt + 1
        nxt += 2
        arcs += [(z, i), (z, j), (w, z), (w, i)]
    return build_digraph(nxt, arcs)


def pendant_contraction_host(m: int) -> Digraph:
    """Ring-of-cycle-gadgets host behind a pendant arc with neither a
    short through-cycle nor a common in-neighbour.

    The finder must contract the pendant tail into its head, solve the
    ring, and lift the certificate back through the contraction.
    """
    ring = ring_of_cycle_gadgets(m)
    shift = 2
    arcs = [(u + shift, v + shift) for u, v in ring.arcs()]
    last_ring = shift + m - 1
    first_ring = shift
    arcs.remove((last_ring, first_ring))
    arcs += [(last_ring, 0), (0, 1), (1, first_ring)]
    return build_digraph(ring.n + shift, arcs)


def condition2_closure_host(m: int) -> Digraph:
    """Ladder path whose far end sprouts a two-arc tail; the second tail
    arc's in-neighbour walk is lured through the seed gadget's ladder
    vertex, so the chain can only close through a gadget intersection."""
    arcs = []
    nxt = m
    ladders = {}
    for i in range(m - 1):
        arcs.append((i, i + 1))
        z, w = nxt, nxt + 1
        nxt += 2
        ladders[i] = (z, w)
        arcs += [(z, i), (z, i + 1), (w, z), (w, i)]
    z0 = ladders[0][0]
    z_tail = ladders[m - 6][0]
    head = m - 1
    f1, f2, zf1, zf2 = nxt, nxt + 1, nxt + 2, nxt + 3
    nxt += 4
    arcs += [(head, f1), (f1, f2)]
    arcs += [(zf1, head), (zf1, f1), (z_tail, zf1), (z_tail, head)]
    arcs += [(zf2, f1), (zf2, f2), (z0, zf2), (z0, f1)]
    return build_digraph(nxt, arcs)


def cycle_walk_closure_host(m: int) -> Digraph:
    """4-cycle gadget path; the head's first escape cycle dips into the
    chain's protected tail (no move) while the second escape cycle rides
    through the seed gadget, forcing the closure that walks a cycle
    gadget into the chain."""
    arcs = []
    nxt = m
    gads = {}
    for i in range(m - 1):
        arcs.append((i, i + 1))
        x, y = nxt, nxt + 1
        nxt += 2
        gads[i] = (x, y)
        arcs += [(i + 1, x), (x, y), (y, i)]
    x0 = gads[0][0]
    x_tail = gads[m - 6][0]
    head = m - 1
    f1, f2, s1, e1 = nxt, nxt + 1, nxt + 2, nxt + 3
    nxt += 4
    arcs += [(head, f1), (f1, f2)]
    arcs += [(f1, s1), (s1, x_tail), (x_tail, head)]
    arcs += [(f2, e1), (e1, x0), (x0, f1)]
    return build_digraph(nxt, arcs)
