import dataclasses
import inspect
import pickle
import random

import pytest

from digraphsub.core import Digraph, build_digraph, pattern_cab
from digraphsub.errors import (
    BadParams,
    BadTarget,
    ChainTooPoor,
    ClosureInvalid,
    Disjoint,
    EndpointMismatch,
    OverlapViolation,
    WrongKind,
)
from digraphsub.gadgets import (
    BACK_ARC,
    FIRST_TO_SECOND,
    CabParams,
    Chain,
    Condition1,
    Condition2,
    Gadget,
    GadgetKind,
    base_alt_path,
    chain_alt_path,
    close_chain,
    extended_exit_path,
    gadget_intersection_path,
    join_alt_paths,
    make_alt_path,
    reach_pq,
    trivial_gadget,
    validate_alternating_path,
    validate_chain,
    validate_gadget,
)
from digraphsub.oracle import validate_certificate
from digraphsub import gadgets, synthetic
from digraphsub.synthetic import (
    IdAllocator,
    chain_closure_fixture,
    intersecting_pair,
    make_gadget,
    make_type_i,
    make_type_ii_basic,
    make_type_ii_extended,
    make_type_iii,
    random_chain,
    wired_cycle_host,
)

from .conftest import grown_from


class TestCabParams:
    def test_frozen_small_values(self):
        p = CabParams(a=2, b=1)
        assert (p.g, p.k, p.h, p.d) == (4, 43320, 18, 380)

    def test_closed_forms_grid(self):
        for a in range(2, 6):
            for b in range(1, 6):
                p = CabParams(a=a, b=b)
                g = 4 * b * b
                assert p.g == g
                assert p.k == 12 * b * b * (4 * g + 3) ** 2 * (a + 3) * (b + 1)
                assert p.h == 4 * g + 2
                assert p.d == 2 * b * (4 * g + 3) * (a + 3) * (b + 1)

    def test_rejects_a1(self):
        with pytest.raises(BadParams):
            CabParams(a=1, b=2)


def _host(arcs, n=None):
    n = n if n is not None else max(max(u, v) for u, v in arcs) + 1
    return build_digraph(n, arcs)


class TestValidateGadget:
    def test_type_i_ok(self, rng):
        b, g = 2, 16
        alloc = IdAllocator()
        arcs, gadget = make_type_i(rng, alloc, b, g)
        assert validate_gadget(_host(arcs), gadget, b, g)

    def test_type_i_too_short(self):
        cycle = (0, 1, 2, 3)
        gadget = Gadget(kind=GadgetKind.TYPE_I, p=0, q=1, cycle=cycle)
        host = _host(set(zip(cycle, cycle[1:])) | {(3, 0)})
        rep = validate_gadget(host, gadget, 2, 16)
        assert not rep and "below" in rep.violation

    def test_type_iii_short_spoke(self):
        b = 2
        gadget = Gadget(
            kind=GadgetKind.TYPE_III, p=0, q=1, r=4,
            p1=(0, 2, 4), p2=(1, 3, 4),
        )
        host = _host({(0, 1), (0, 2), (2, 4), (1, 3), (3, 4)})
        rep = validate_gadget(host, gadget, b, 16)
        assert not rep and "too short" in rep.violation

    def test_type_ii_missing_domination_arc(self, rng):
        b = 1
        alloc = IdAllocator()
        arcs, gadget = make_type_ii_basic(rng, alloc, b)
        victim = (gadget.p1[0], gadget.q)
        host = _host(arcs - {victim})
        rep = validate_gadget(host, gadget, b, 4)
        assert not rep and "absent" in rep.violation

    def test_every_kind_randomized(self, rng):
        for b in (1, 2, 3):
            g = 4 * b * b
            for make in (make_type_i, make_type_ii_basic, make_type_ii_extended, make_type_iii):
                for _ in range(20):
                    alloc = IdAllocator()
                    if make is make_type_i:
                        arcs, gadget = make(rng, alloc, b, g)
                    else:
                        arcs, gadget = make(rng, alloc, b)
                    assert validate_gadget(_host(arcs), gadget, b, g)


# valid gadgets of every kind at b = 1, g = 4; each rejection case below
# breaks one of them in one place (a field, or a larger b) and trips
# exactly one clause of validate_gadget.  "q lies on P1" has no row: a
# dominating gadget with q on P1 demands the loop (q, q), so the
# arc-absent clause always fires first.
GADGET_CYCLE = Gadget(kind=GadgetKind.TYPE_I, p=0, q=1, cycle=(0, 1, 2, 3))
GADGET_BASIC = Gadget(kind=GadgetKind.TYPE_II_BASIC, p=0, q=1, r=2, p1=(2, 3, 0))
GADGET_EXTENDED = dataclasses.replace(
    GADGET_BASIC, kind=GadgetKind.TYPE_II_EXTENDED, p2=(4, 2), link=(BACK_ARC, 3),
)
GADGET_MERGE = Gadget(kind=GadgetKind.TYPE_III, p=0, q=1, r=2, p1=(0, 3, 5, 2), p2=(1, 4, 2))
GADGET_REJECTIONS = [
    pytest.param(GADGET_CYCLE, {"q": 0}, 1, None, "p equals q", id="p-equals-q"),
    pytest.param(GADGET_BASIC, {}, 1, (3, 0), "arc absent: (3, 0)", id="absent-arc"),
    pytest.param(GADGET_CYCLE, {"cycle": (1, 2, 3, 0)}, 1, None, "cycle must start p, q", id="cycle-start"),
    pytest.param(GADGET_CYCLE, {"cycle": (0, 1, 2, 3, 2)}, 1, None, "cycle repeats a vertex",
                 id="cycle-repeat"),
    pytest.param(GADGET_CYCLE, {"cycle": (0, 1, 2)}, 1, None, "cycle length 3 below 4", id="cycle-short"),
    pytest.param(GADGET_BASIC, {"p1": (3, 2, 0)}, 1, None, "P1 must run r .. p", id="p1-ends"),
    pytest.param(GADGET_BASIC, {"p1": (2, 3, 2, 0)}, 1, None, "P1 repeats a vertex", id="p1-repeat"),
    pytest.param(GADGET_BASIC, {}, 2, None, "P1 too short", id="dominating-p1-short"),
    pytest.param(GADGET_EXTENDED, {"p2": (4, 5)}, 1, None, "P2 must end at r", id="p2-end"),
    pytest.param(GADGET_EXTENDED, {"p2": (4, 5, 4, 2)}, 1, None, "P2 repeats a vertex", id="p2-repeat"),
    pytest.param(GADGET_EXTENDED, {"p2": (2,)}, 1, None, "P2 too short", id="extended-p2-short"),
    pytest.param(GADGET_EXTENDED, {"p2": (4, 0, 2)}, 1, None, "P1 and P2 must meet only at r",
                 id="p1-p2-meet"),
    pytest.param(GADGET_EXTENDED, {"p2": (1, 2)}, 1, None, "q lies on P2", id="q-on-p2"),
    pytest.param(GADGET_EXTENDED, {"link": ("neither", 3)}, 1, None, "extended gadget needs a link clause",
                 id="link-clause"),
    pytest.param(GADGET_EXTENDED, {"link": (BACK_ARC, 2)}, 1, None,
                 "back-arc tail must lie on P1 away from r", id="back-arc-tail"),
    pytest.param(GADGET_MERGE, {"p1": (3, 0, 5, 2)}, 1, None, "P1 must run p .. r", id="merge-p1-ends"),
    pytest.param(GADGET_MERGE, {"p2": (4, 1, 2)}, 1, None, "P2 must run q .. r", id="merge-p2-ends"),
    pytest.param(GADGET_MERGE, {"p1": (0, 3, 0, 2)}, 1, None, "spoke repeats a vertex", id="spoke-repeat"),
    pytest.param(GADGET_MERGE, {"p1": (0, 3, 2)}, 2, None, "P1 too short", id="merge-p1-short"),
    pytest.param(GADGET_MERGE, {}, 2, None, "P2 too short", id="merge-p2-short"),
    pytest.param(GADGET_MERGE, {"p2": (1, 3, 2)}, 1, None, "spokes must meet only at r", id="spokes-meet"),
]


class TestGadgetRejections:
    @pytest.mark.parametrize("gadget", [GADGET_CYCLE, GADGET_BASIC, GADGET_EXTENDED, GADGET_MERGE])
    def test_good_gadgets_pass(self, gadget):
        assert validate_gadget(_host(gadget.arcs(), n=6), gadget, 1, 4)

    @pytest.mark.parametrize("gadget,changes,b,drop,violation", GADGET_REJECTIONS)
    def test_each_clause_alone(self, gadget, changes, b, drop, violation):
        broken = dataclasses.replace(gadget, **changes)
        report = validate_gadget(_host(broken.arcs() - {drop}, n=6), broken, b, 4)
        assert not report and report.violation == violation

    def test_q_on_p1_only_on_a_host_with_its_loop(self):
        # P1's arcs into q include (q, q) when q lies on P1: a loopless host
        # trips the arc-absent clause first, and only the unchecked
        # constructor still builds a host holding the loop
        gadget = Gadget(kind=GadgetKind.TYPE_II_BASIC, p=0, q=1, r=2, p1=(2, 1, 0))
        assert validate_gadget(_host(gadget.arcs() - {(1, 1)}, n=3), gadget, 1, 4).violation == "arc absent: (1, 1)"
        report = validate_gadget(Digraph(3, ((1,), (0, 1), (1,))), gadget, 1, 4)
        assert not report and report.violation == "q lies on P1"


def _alt_arcs(path):
    return {arc for piece in path.q_paths + path.qp_paths for arc in zip(piece, piece[1:])}


# a valid strong (3, 2)-alternating path; each rejection case below breaks
# exactly one clause of make_alt_path or validate_alternating_path
ALT_GOOD = gadgets.AlternatingPath(
    q_paths=((0, 1, 2), (10, 11, 12), (20, 21, 22)),
    qp_paths=((10, 5, 2), (20, 15, 12)),
    strong=True,
)
ALT_REJECTIONS = [
    pytest.param({"qp_paths": ((10, 5, 2),)}, None, "piece counts are inconsistent", id="piece-counts"),
    pytest.param({"qp_paths": ((10, 5, 3), (20, 15, 12))}, None,
                 "Q'_1 does not run s_2 .. t_1", id="qp-ends"),
    pytest.param({"qp_paths": ((10, 2), (20, 15, 12))}, None, "Q'_1 shorter than 2", id="short-qp"),
    pytest.param({"q_paths": ((0, 1, 2), (10, 12), (20, 21, 22))}, None,
                 "interior Q_2 shorter than 2", id="short-interior-q"),
    pytest.param({"qp_paths": ((10, 1, 2), (20, 15, 12))}, None,
                 "pieces overlap outside their shared endpoints", id="overlap"),
    pytest.param({"strong": False}, None, "strength flag incorrect", id="strength-flag"),
    pytest.param({}, (21, 22), "arc absent: (21, 22)", id="absent-arc"),
]


class TestAltPathRejections:
    def test_good_path_passes(self):
        assert ALT_GOOD.strong and validate_alternating_path(_host(_alt_arcs(ALT_GOOD)), ALT_GOOD, 2)

    def test_ends_are_read_off_the_pieces(self):
        assert [f.name for f in dataclasses.fields(ALT_GOOD)] == ["q_paths", "qp_paths", "strong"]
        assert (ALT_GOOD.s, ALT_GOOD.t, ALT_GOOD.a) == ((0, 10, 20), (2, 12, 22), 3)

    @pytest.mark.parametrize("changes,drop,violation", ALT_REJECTIONS)
    def test_each_clause_alone(self, changes, drop, violation):
        path = dataclasses.replace(ALT_GOOD, **changes)
        host = _host(_alt_arcs(path) - {drop}, n=23)
        report = validate_alternating_path(host, path, 2)
        assert not report and report.violation == violation
        if changes.keys() - {"strong"}:  # the structural clauses live in make_alt_path
            with pytest.raises(OverlapViolation) as exc:
                make_alt_path(path.q_paths, path.qp_paths, 2)
            assert str(exc.value) == violation


class TestBaseAltPath:
    def test_type_i(self, rng):
        b, g = 2, 16
        alloc = IdAllocator()
        arcs, gadget = make_type_i(rng, alloc, b, g)
        r0 = base_alt_path(gadget, b)
        assert r0.s == (gadget.p, gadget.q) and r0.t == (gadget.p, gadget.q)
        assert len(r0.qp_paths[0]) == len(gadget.cycle)
        assert validate_alternating_path(_host(arcs), r0, b)

    def test_type_ii_single_arc_finish(self, rng):
        b = 2
        alloc = IdAllocator()
        arcs, gadget = make_type_ii_basic(rng, alloc, b)
        r0 = base_alt_path(gadget, b)
        assert r0.s[1] == gadget.r
        assert r0.q_paths[1] == (gadget.r, gadget.q)
        assert validate_alternating_path(_host(arcs), r0, b)

    def test_trivial_rejected(self):
        with pytest.raises(WrongKind):
            base_alt_path(trivial_gadget(0, 1), 1)


class TestReachPq:
    def test_zero_length_at_p(self, rng):
        alloc = IdAllocator()
        _, gadget = make_type_i(rng, alloc, 1, 4)
        assert reach_pq(gadget, gadget.p) == (gadget.p,)

    def test_cycle_successor_walks_around(self, rng):
        b, g = 1, 4
        alloc = IdAllocator()
        arcs, gadget = make_type_i(rng, alloc, b, g)
        x = gadget.cycle[2]  # successor of q on the cycle
        walk = reach_pq(gadget, x)
        assert walk[0] == x and walk[-1] == gadget.p
        assert len(walk) == len(gadget.cycle) - 1
        host = _host(arcs)
        assert all(host.has_arc(u, v) for u, v in zip(walk, walk[1:]))

    def test_dominating_gadget_single_arc(self, rng):
        alloc = IdAllocator()
        _, gadget = make_type_ii_basic(rng, alloc, 2)
        x = gadget.p1[1]
        assert reach_pq(gadget, x) == (x, gadget.q)

    def test_merge_gadget_rejected(self, rng):
        alloc = IdAllocator()
        _, gadget = make_type_iii(rng, alloc, 2)
        with pytest.raises(WrongKind):
            reach_pq(gadget, gadget.r)


def _extended_with_interior(rng, b, link_kind, min_interior=1):
    """Regenerate until the dominating path has enough interior room."""
    while True:
        alloc = IdAllocator()
        arcs, gadget = make_type_ii_extended(rng, alloc, b, link_kind=link_kind)
        if len(gadget.p1) - 2 >= min_interior:
            return arcs, gadget


class TestExtendedExitPath:
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_first_to_second_branch(self, b):
        rng = random.Random(b)
        arcs, gadget = _extended_with_interior(rng, b, FIRST_TO_SECOND)
        x = gadget.p1[1]
        r = extended_exit_path(gadget, {x}, b)
        assert r.t[-1] == x
        assert r.qp_paths[0] == gadget.p2 + (gadget.q,)
        assert validate_alternating_path(_host(arcs), r, b)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_back_arc_from_p(self, b):
        rng = random.Random(b + 10)
        arcs, gadget = _extended_with_interior(rng, b, "back_arc_p", min_interior=2)
        x = gadget.p1[2]
        r = extended_exit_path(gadget, {x}, b)
        assert r.a == 1
        assert r.s == (gadget.p,) and r.t == (x,)
        assert validate_alternating_path(_host(arcs), r, b)

    def test_back_arc_w_before_target(self):
        rng = random.Random(5)
        b = 2
        alloc = IdAllocator()
        arcs, gadget = make_type_ii_extended(rng, alloc, b, link_kind="back_arc_inner")
        w = gadget.link[1]
        iw = gadget.p1.index(w)
        if iw + 1 >= len(gadget.p1) - 1:
            pytest.skip("w landed at the head")
        x = gadget.p1[iw + 1]
        r = extended_exit_path(gadget, {x}, b)
        assert r.t[-1] == x
        assert r.s[0] == gadget.q
        assert validate_alternating_path(_host(arcs), r, b)

    def test_back_arc_target_before_w(self):
        rng = random.Random(11)
        b = 2
        alloc = IdAllocator()
        while True:
            arcs, gadget = make_type_ii_extended(rng, alloc, b, link_kind="back_arc_inner")
            if gadget.p1.index(gadget.link[1]) >= 2:
                break
            alloc = IdAllocator()
        w = gadget.link[1]
        x = gadget.p1[gadget.p1.index(w) - 1]
        r = extended_exit_path(gadget, {x}, b)
        assert r.t[-1] == x
        assert r.s[1] == x  # zero-length final piece
        assert validate_alternating_path(_host(arcs), r, b)

    def test_p2_vertex_via_single_dispatch(self, rng):
        b = 2
        alloc = IdAllocator()
        arcs, gadget = make_type_ii_extended(rng, alloc, b)
        x = gadget.p2[0]
        r = extended_exit_path(gadget, {x}, b)
        assert r.s[0] == gadget.p and r.t[-1] == x
        assert validate_alternating_path(_host(arcs), r, b)

    def test_designated_target_rejected(self, rng):
        alloc = IdAllocator()
        _, gadget = make_type_ii_extended(rng, alloc, 2)
        with pytest.raises(BadTarget):
            extended_exit_path(gadget, {gadget.p}, 2)

    def test_target_hit_exactly_once(self, rng):
        # the guarantee that drives the chain closures
        b = 2
        for _ in range(50):
            arcs, gadget = _extended_with_interior(rng, b, None)
            pool = list(gadget.p1[1:-1])
            xs = set(rng.sample(pool, min(len(pool), rng.randrange(1, 5))))
            r = extended_exit_path(gadget, xs, b)
            assert r.t[-1] in xs
            assert len(r.vertices() & xs) == 1
            assert len(r.vertices() & {gadget.p, gadget.q}) == 1
            assert validate_alternating_path(_host(arcs), r, b)


class TestChainAltPath:
    def test_single_piece_is_spine(self, rng):
        b = 2
        alloc = IdAllocator()
        arcs, chain = random_chain(rng, alloc, b, 16, n_gadget_arcs=b + 1)
        r = chain_alt_path(chain, 1, b)
        assert r.q_paths == (chain.spine,)
        assert r.strong

    def test_threading_conclusion(self, rng):
        for a in (1, 2, 3):
            for b in (1, 2):
                g = 4 * b * b
                alloc = IdAllocator()
                arcs, chain = random_chain(rng, alloc, b, g, n_gadget_arcs=a * (b + 1) - 1)
                host = _host(arcs)
                assert validate_chain(host, chain, b, g)
                r = chain_alt_path(chain, a, b)
                assert r.a == a
                assert r.s[0] == chain.spine[0]
                assert r.t[-1] == chain.spine[-1]
                assert r.strong
                assert validate_alternating_path(host, r, b)

    def test_too_poor(self, rng):
        b = 1
        alloc = IdAllocator()
        _, chain = random_chain(rng, alloc, b, 4, n_gadget_arcs=2 * (b + 1) - 2)
        with pytest.raises(ChainTooPoor):
            chain_alt_path(chain, 2, b)

    def test_handmade_merge_gadget_chain(self):
        # spine 0..5; the last eligible gadget arc carries a merge gadget,
        # so the detour through its meeting point must appear in the output
        b = 1
        host = _host(CHAIN_ARCS)
        assert validate_chain(host, CHAIN_GOOD, b, 4)
        r = chain_alt_path(CHAIN_GOOD, 2, b)
        assert r.t[0] == 11  # detours through the merge point
        assert r.strong and validate_alternating_path(host, r, b)


def _cycle_gadget(*cycle):
    return Gadget(kind=GadgetKind.TYPE_I, p=cycle[0], q=cycle[1], cycle=cycle)


# a valid chain at b = 1, g = 4: spine 0..5 with a cycle gadget on arc 0,
# a dominating one on arc 2 and a merge gadget on arc 3.  Each rejection
# case below changes the chain or its host arcs so that exactly one
# clause of validate_chain fails.
CHAIN_G0 = _cycle_gadget(0, 1, 6, 7)
CHAIN_G1 = Gadget(kind=GadgetKind.TYPE_II_BASIC, p=2, q=3, r=8, p1=(8, 2))
CHAIN_G2 = Gadget(kind=GadgetKind.TYPE_III, p=3, q=4, r=11, p1=(3, 9, 11), p2=(4, 10, 11))
CHAIN_GOOD = Chain(spine=(0, 1, 2, 3, 4, 5), gadgets={0: CHAIN_G0, 2: CHAIN_G1, 3: CHAIN_G2})
CHAIN_ARCS = frozenset({
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
    (1, 6), (6, 7), (7, 0),
    (8, 2), (8, 3),
    (3, 9), (9, 11), (4, 10), (10, 11),
})
CHAIN_REJECTIONS = [
    pytest.param({"spine": (0, 1, 2, 3, 4, 5, 0)}, {(5, 0)}, set(), "spine repeats a vertex",
                 id="repeated-spine-vertex"),
    pytest.param({}, set(), {(4, 5)}, "spine arc absent: (4, 5)", id="absent-spine-arc"),
    # index -1 would pass the anchoring clause by Python's negative indexing
    pytest.param({"gadgets": {-1: _cycle_gadget(5, 0, 12, 13), 0: CHAIN_G0, 2: CHAIN_G1, 3: CHAIN_G2}},
                 {(5, 0), (0, 12), (12, 13), (13, 5)}, set(), "gadget index -1 out of range",
                 id="index-out-of-range"),
    pytest.param({"gadgets": {0: CHAIN_G0, 1: trivial_gadget(1, 2), 2: CHAIN_G1, 3: CHAIN_G2}}, set(), set(),
                 "kind trivial not allowed on a chain", id="trivial-kind"),
    pytest.param({"gadgets": {0: CHAIN_G0, 2: CHAIN_G1, 3: CHAIN_G2, 4: _cycle_gadget(4, 12, 13, 5)}},
                 {(4, 12), (12, 13), (13, 5), (5, 4)}, set(), "gadget at 4 not anchored to its arc",
                 id="not-anchored"),
    pytest.param({}, set(), {(7, 0)}, "gadget at 0: arc absent: (7, 0)", id="invalid-gadget"),
    pytest.param({"gadgets": {0: _cycle_gadget(0, 1, 6, 5), 2: CHAIN_G1, 3: CHAIN_G2}}, {(6, 5), (5, 0)}, set(),
                 "gadget at 0 meets the spine off its arc", id="meets-spine"),
    pytest.param({"gadgets": {0: CHAIN_G0, 2: dataclasses.replace(CHAIN_G1, r=7, p1=(7, 2)), 3: CHAIN_G2}},
                 {(7, 2), (7, 3)}, set(), "gadgets at 0 and 2 overlap off the spine", id="overlap"),
]


class TestChainRejections:
    def test_good_chain_passes(self):
        assert validate_chain(_host(CHAIN_ARCS, n=14), CHAIN_GOOD, 1, 4)

    @pytest.mark.parametrize("changes,added,dropped,violation", CHAIN_REJECTIONS)
    def test_each_clause_alone(self, changes, added, dropped, violation):
        chain = dataclasses.replace(CHAIN_GOOD, **changes)
        report = validate_chain(_host((CHAIN_ARCS | added) - dropped, n=14), chain, 1, 4)
        assert not report and report.violation == violation


class TestJoinAltPaths:
    @pytest.mark.parametrize("a1,a2,b", [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 3, 1), (1, 3, 2)])
    def test_join_produces_valid_certificate(self, a1, a2, b):
        rng = random.Random(100 * a1 + 10 * a2 + b)
        host, r1, r2 = wired_cycle_host(rng, a1, a2, b)
        cert = join_alt_paths(host, r1, r2, b)
        pattern = pattern_cab(a1 + a2 - 2, b)
        assert validate_certificate(host, pattern, cert)

    def test_endpoint_mismatch(self, rng):
        host, r1, r2 = wired_cycle_host(rng, 2, 2, 1)
        with pytest.raises(EndpointMismatch):
            join_alt_paths(host, r1, r1, 1)

    def test_overlap_rejected(self, rng):
        alloc = IdAllocator()
        j1, j2 = alloc.take(2)
        arcs1, r1 = synthetic.random_strong_alt_path(rng, alloc, 2, 1, j1, j2)
        shared = sorted(r1.vertices() - {j1, j2})[0]
        # second path reuses an interior vertex of the first
        q1 = (j2, shared, alloc.one(), j1)
        r2 = make_alt_path((q1,), (), 1)
        host = _host(arcs1 | set(zip(q1, q1[1:])))
        with pytest.raises(OverlapViolation):
            join_alt_paths(host, r1, r2, 1)


class TestGadgetIntersection:
    CASES = ["reachable", "merge-far", "merge-near", "merge-return"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_randomized(self, case, b):
        if case == "merge-near" and b == 1:
            pytest.skip("near intersections need b >= 2")
        rng = random.Random(hash((case, b)) & 0xFFFF)
        g = 4 * b * b
        for _ in range(40):
            host, gg, gstar = intersecting_pair(rng, b, g, case)
            r = gadget_intersection_path(gg, gstar, b)
            assert 1 <= r.a <= 3
            assert r.s[0] in (gstar.p, gstar.q)
            assert r.t[-1] in (gg.p, gg.q)
            assert len(r.vertices() & {gstar.p, gstar.q}) == 1
            assert len(r.vertices() & {gg.p, gg.q}) == 1
            assert validate_alternating_path(host, r, b)

    def test_disjoint_rejected(self, rng):
        alloc = IdAllocator()
        _, gg = make_type_i(rng, alloc, 1, 4)
        _, gstar = make_type_ii_extended(rng, alloc, 1)
        with pytest.raises(Disjoint):
            gadget_intersection_path(gg, gstar, 1)

    def test_designated_corner_stays_closure_safe(self):
        # both designated vertices of the first gadget inside the second:
        # the result must end at q, or meet the pair exactly once
        rng = random.Random(3)
        b = 2
        for _ in range(40):
            host, gg, gstar = intersecting_pair(rng, b, 16, "reachable")
            victims = [v for v in gstar.p1[1:-1]]
            arcs = set(host.arcs())
            other = gg.q if gg.p in gstar.vertices() else gg.p
            already = gstar.vertices() & {gg.p, gg.q}
            if other in gstar.vertices() or not victims:
                continue
            victim = victims[0] if victims[0] not in already else victims[1]
            arcs2, gstar2 = synthetic._substitute(arcs, gstar, victim, other)
            host2 = build_digraph(host.n, arcs2)
            try:
                r = gadget_intersection_path(gg, gstar2, b)
            except OverlapViolation:
                continue
            hits = r.vertices() & {gg.p, gg.q}
            assert hits == {r.t[-1]} or r.t[-1] == gg.q


class TestCloseChain:
    @pytest.mark.parametrize("condition", [1, 2])
    @pytest.mark.parametrize("a,b", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_randomized_closures(self, condition, a, b):
        rng = random.Random(1000 * condition + 10 * a + b)
        g = 4 * b * b
        for _ in range(15):
            host, chain, closure = chain_closure_fixture(rng, a, b, g, condition)
            assert validate_chain(host, chain, b, g)
            cert = close_chain(host, chain, closure, a, b)
            assert validate_certificate(host, pattern_cab(a, b), cert)

    def test_chain_too_poor(self, rng):
        a, b = 2, 1
        alloc = IdAllocator()
        arcs, chain = random_chain(rng, alloc, b, 4, n_gadget_arcs=(a + 3) * (b + 1) - 3)
        host = _host(arcs)
        with pytest.raises(ChainTooPoor):
            close_chain(host, chain, Condition1(x=chain.spine[1]), a, b)

    def test_condition2_leak_rejected(self, rng):
        a, b = 2, 1
        host, chain, closure = chain_closure_fixture(rng, a, b, 4, 2)
        # corrupt: pretend the gadget also touches a mid-spine vertex
        bad = synthetic._substitute(set(host.arcs()), closure.gstar,
                                    closure.gstar.p2[0], chain.spine[4])
        host2 = build_digraph(host.n, bad[0])
        with pytest.raises(ClosureInvalid):
            close_chain(host2, chain, Condition2(closure.zstar, bad[1]), a, b)

    def test_condition1_missing_arc(self, rng):
        a, b = 2, 1
        host, chain, closure = chain_closure_fixture(rng, a, b, 4, 1)
        outsider = chain.spine[3]
        with pytest.raises(ClosureInvalid):
            close_chain(host, chain, Condition1(x=outsider), a, b)


def _reference_gadget_vertices(gadget):
    """The gadget's vertex set, rebuilt on every call."""
    vs = {gadget.p, gadget.q}
    for part in (gadget.cycle, gadget.p1, gadget.p2):
        if part:
            vs.update(part)
    return frozenset(vs)


def _reference_chain_vertices(chain):
    """The union of the spine and every gadget, rebuilt on every call."""
    vs = set(chain.spine)
    for g in chain.gadgets.values():
        vs |= _reference_gadget_vertices(g)
    return vs


def _every_kind(rng, b, g):
    alloc = IdAllocator()
    for kind in GadgetKind:
        for _ in range(5):
            yield make_gadget(rng, alloc, kind, b, g)[1]


def _seeded_chains():
    for seed in range(12):
        rng = random.Random(seed)
        b = 1 + seed % 3
        yield random_chain(rng, IdAllocator(), b, 4 * b * b, n_gadget_arcs=1 + seed)[1]


class TestCachedVertexSets:
    def test_gadget_vertices_match_reference(self, rng):
        for b in (1, 2, 3):
            for gadget in _every_kind(rng, b, 4 * b * b):
                assert gadget.vertices() == _reference_gadget_vertices(gadget)
                assert isinstance(gadget.vertices(), frozenset)

    def test_chain_vertex_set_matches_reference_on_every_subchain(self):
        for chain in _seeded_chains():
            assert chain.vertex_set() == _reference_chain_vertices(chain)
            for i in range(chain.m):
                for j in range(i + 1, chain.m + 1):
                    sub = chain.subchain(i, j)
                    assert sub.vertex_set() == _reference_chain_vertices(sub)

    def test_extended_chain_set_matches_reference(self, rng):
        # cab's growth state grown from seeded chains by one gadget of
        # every kind; an extension that would repeat a spine vertex is
        # refused and leaves the state as it was
        for chain in _seeded_chains():
            growth = grown_from(chain)
            alloc = IdAllocator(max(chain.vertex_set()) + 1)
            for kind in GadgetKind:
                lead = tuple(alloc.take(rng.randrange(3)))
                p = lead[-1] if lead else growth.spine[-1]
                gadget = make_gadget(rng, alloc, kind, 1, 4, p=p)[1]
                assert growth.extend(lead, gadget)
                grown = growth.cut(0, ())
                assert grown.spine[-len(lead) - 1:] == lead + (gadget.q,)
                assert grown.gadgets[grown.m - 1] is gadget
                assert grown.vertex_set() == _reference_chain_vertices(grown)
            state = (list(growth.spine), dict(growth.gadgets), dict(growth.index))
            x, y, z = alloc.take(3)
            for lead, gadget in (
                ((), trivial_gadget(growth.spine[-1], growth.spine[1])),
                ((growth.spine[0],), trivial_gadget(growth.spine[0], z)),
                ((x, y, x), trivial_gadget(x, z)),
            ):
                assert not growth.extend(lead, gadget)
                assert (growth.spine, growth.gadgets, growth.index) == state

    def test_repeated_calls_return_the_same_object(self, rng):
        for gadget in _every_kind(rng, 2, 16):
            assert gadget.vertices() is gadget.vertices()

    def test_cache_leaves_gadget_value_unchanged(self, rng):
        for gadget in _every_kind(rng, 1, 4):
            twin = dataclasses.replace(gadget)
            before = (hash(gadget), repr(gadget))
            gadget.vertices()
            assert (hash(gadget), repr(gadget)) == before
            assert gadget == twin and twin == gadget
            assert hash(gadget) == hash(twin)

    def test_cache_leaves_chain_value_unchanged(self):
        for chain in _seeded_chains():
            twin = Chain(spine=chain.spine, gadgets=dict(chain.gadgets))
            before = repr(chain)
            assert before.startswith(f"Chain(spine={chain.spine!r}, gadgets={{")
            chain.vertex_set()
            assert repr(chain) == before
            assert chain == twin and twin == chain
            assert pickle.loads(pickle.dumps(chain)) == chain
            with pytest.raises(TypeError):
                hash(chain)

    def test_vertex_set_stays_a_plain_method(self):
        # benchmark tracing wraps Chain.vertex_set by name; a property or
        # a rename would break traced runs
        assert inspect.isfunction(gadgets.Chain.vertex_set)
        assert inspect.isfunction(gadgets.Gadget.vertices)
