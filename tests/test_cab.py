import hashlib
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from digraphsub import cab, gadgets, synthetic
from digraphsub.cab import (
    embed_gadget_i_or_ii,
    embed_gadget_iii,
    find_cab,
    find_oriented_cycle_subdivision,
    long_dicycle,
    reduce_girth,
)
from digraphsub.core import (
    Digraph,
    bioriented_clique,
    build_digraph,
    directed_cycle,
    directed_girth,
    min_out_degree,
    pattern_cab,
    pattern_two_block,
)
from digraphsub.cycle_embed import certificate_from_cycle, cycle_shape, digraph_cycle_shape
from digraphsub.errors import (
    BadParams,
    BudgetExceeded,
    DegeneratePattern,
    DigraphError,
    InvariantViolation,
    PreconditionUnverifiable,
    PropertyViolated,
    RetriesExhausted,
)
from digraphsub.gadgets import CabParams, Chain, GadgetKind, validate_gadget
from digraphsub.oracle import (
    ContractionRecord,
    SearchBudget,
    SubdivisionCertificate,
    contract_arc,
    lift_contraction,
    validate_certificate,
)
from digraphsub.outcome import NotFound
from digraphsub.synthetic import wired_cycle_host
from digraphsub.two_block import find_two_block

from .conftest import rand_digraph, rand_out_digraph, run_script

GOLDEN_CAB = Path(__file__).parent / "data" / "cab_golden.sha256"
STAGED_KINDS = (
    "ring_of_cycle_gadgets",
    "ring_of_dominating_gadgets",
    "pendant_contraction_host",
    "condition2_closure_host",
    "cycle_walk_closure_host",
)


class TestLongDicycle:
    def test_digon(self):
        cyc = long_dicycle(bioriented_clique(2))
        assert len(cyc) == 2

    def test_bivec_k4(self):
        cyc = long_dicycle(bioriented_clique(4))
        assert len(cyc) >= 4

    def test_random_3_out(self, rng):
        for _ in range(50):
            d = rand_out_digraph(rng, 50, 3)
            cyc = long_dicycle(d)
            assert len(cyc) >= 4
            assert all(d.has_arc(cyc[i], cyc[i + 1]) for i in range(len(cyc) - 1))
            assert d.has_arc(cyc[-1], cyc[0])
            assert len(set(cyc)) == len(cyc)


class TestReduceGirth:
    def test_complete_biorientation(self):
        k, g = 3, 4
        n = int(2 * k * g * g * math.log(g)) + 1
        d = bioriented_clique(n)
        sub, kept = reduce_girth(d, k, g, seed=5)
        assert min_out_degree(sub) >= k
        assert directed_girth(sub) >= g
        assert len(kept) == sub.n

    def test_sparse_input_exhausts(self):
        d = directed_cycle(6)
        with pytest.raises(RetriesExhausted):
            reduce_girth(d, 2, 3, seed=0, max_retries=8)

    def test_g1_identity(self):
        d = bioriented_clique(5)
        sub, kept = reduce_girth(d, 4, 1, seed=0)
        assert sub.n == 5 and min_out_degree(sub) >= 4

    def test_reproducible(self):
        d = bioriented_clique(40)
        s1, k1 = reduce_girth(d, 2, 4, seed=11)
        s2, k2 = reduce_girth(d, 2, 4, seed=11)
        assert k1 == k2 and s1 == s2

    def test_numpy_is_not_loaded_by_import(self):
        proc = run_script("""
            import sys
            import digraphsub, digraphsub.cli
            print("numpy" in sys.modules)
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_rows_share_one_int_per_vertex(self):
        # Rows cut from ``tolist`` slices hold one fresh int per arc.  On
        # the criterion-6 reduced host (3,999 vertices, 99,662 arcs) that
        # slowed find_two_block from 19.7 to 25.3 ms at (4, 2) and from
        # 104 to 132 ms at (9, 2) (medians of 8 runs, 2 CPUs, Python
        # 3.11) against rows whose entries are the one object of their id.
        sub, _ = reduce_girth(_dense_out_rows(3, 600, 60), 4, 3, seed=2)
        assert sub.n > 256  # past CPython's cached small ints
        assert len({id(v) for row in sub._out for v in row}) <= sub.n


def _reference_reduce_girth(d, k, g, seed=None, max_retries=64):
    """``cab.reduce_girth`` before it ran on arc arrays end to end: arcs
    listed as tuples, survivors relabelled through a dict and rebuilt
    with ``build_digraph``."""
    if k < 0 or g < 1:
        raise BadParams("need k >= 0 and g >= 1")
    arcs = list(d.arcs())
    if not arcs:
        raise RetriesExhausted("no arcs to filter")
    tails = np.fromiter((u for u, _ in arcs), dtype=np.int64, count=len(arcs))
    heads = np.fromiter((v for _, v in arcs), dtype=np.int64, count=len(arcs))
    rng = np.random.default_rng(seed)

    for _ in range(max_retries):
        levels = rng.integers(0, g, size=d.n)
        keep = levels[heads] == (levels[tails] + 1) % g
        kt = tails[keep]
        kh = heads[keep]
        survivors = _reference_peel(d.n, kt, kh, k)
        if survivors.size == 0:
            continue
        keep_pair = np.isin(kt, survivors) & np.isin(kh, survivors)
        kept_ids = sorted(int(v) for v in survivors)
        index = {v: i for i, v in enumerate(kept_ids)}
        sub = build_digraph(
            len(kept_ids),
            [(index[int(u)], index[int(v)]) for u, v in zip(kt[keep_pair], kh[keep_pair])],
        )
        if min_out_degree(sub) < k:
            raise InvariantViolation("peeling left a vertex of out-degree below k")
        lv = {i: int(levels[v]) for v, i in index.items()}
        if not all((lv[u] + 1) % g == lv[v] for u, v in sub.arcs()):
            raise InvariantViolation("level invariant broken")
        if sub.n * sub.m <= cab._GIRTH_CHECK_WORK and directed_girth(sub) < g:
            raise InvariantViolation("reduced graph has a cycle shorter than g")
        return sub, kept_ids
    raise RetriesExhausted(f"no qualifying subgraph in {max_retries} attempts")


def _reference_peel(n, tails, heads, k):
    alive = np.ones(n, dtype=bool)
    out_deg = np.bincount(tails, minlength=n)
    in_lists = {}
    for t, h in zip(tails.tolist(), heads.tolist()):
        in_lists.setdefault(h, []).append(t)
    queue = [v for v in range(n) if out_deg[v] < k]
    for v in queue:
        alive[v] = False
    while queue:
        v = queue.pop()
        for t in in_lists.get(v, ()):
            if alive[t]:
                out_deg[t] -= 1
                if out_deg[t] < k:
                    alive[t] = False
                    queue.append(t)
    return np.flatnonzero(alive)


def _dense_out_rows(seed, n, k):
    """n vertices, each with exactly k distinct random out-neighbours,
    given as sorted rows (the large-hosts benchmark's host shape)."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n):
        row = rng.choice(n - 1, size=k, replace=False)
        row = row + (row >= u)
        rows.append(tuple(sorted(row.tolist())))
    return Digraph(n, tuple(rows))


def _reduce_or_error(fn, d, k, g, seed, max_retries):
    try:
        sub, kept = fn(d, k, g, seed=seed, max_retries=max_retries)
    except DigraphError as err:
        return type(err), str(err)
    return sub, sub._in, kept


class TestReduceGirthDifferential:
    """The array pipeline against the tuple-and-dict reference: equal
    ``(sub, kept)``, in-lists and errors, retry for retry."""

    PARAMS = ((0, 1), (1, 1), (2, 1), (0, 3), (1, 2), (2, 3), (3, 4), (1, 5), (2, 2), (4, 3))

    def test_random_hosts(self):
        rng = random.Random(20240617)
        cases = 0
        for i in range(330):
            n = rng.randint(2, 40)
            d = rand_digraph(rng, n, rng.choice((0.0, 0.05, 0.15, 0.3, 0.6, 0.9)))
            k, g = self.PARAMS[i % len(self.PARAMS)]
            max_retries = rng.choice((1, 2, 8, 64))
            got = _reduce_or_error(reduce_girth, d, k, g, i, max_retries)
            want = _reduce_or_error(_reference_reduce_girth, d, k, g, i, max_retries)
            assert got == want, (i, n, d.m, k, g, max_retries)
            cases += 1
        assert cases >= 300

    @pytest.mark.parametrize("k, g", [(-1, 2), (1, 0), (0, 1), (2, 3)])
    def test_edge_hosts(self, k, g):
        for d in (build_digraph(5, []), directed_cycle(6), bioriented_clique(6)):
            for max_retries in (0, 1, 3):
                got = _reduce_or_error(reduce_girth, d, k, g, 7, max_retries)
                want = _reduce_or_error(_reference_reduce_girth, d, k, g, 7, max_retries)
                assert got == want

    def test_large_dense_host(self):
        d = _dense_out_rows(11, 2000, 100)
        got = _reduce_or_error(reduce_girth, d, 8, 5, 3, 64)
        assert got == _reduce_or_error(_reference_reduce_girth, d, 8, 5, 3, 64)
        assert got[0].m > 0


def _walk_closure_host(b):
    """Host forcing the in-neighbour walks to run to completion: an
    acyclic ladder of common in-neighbours below (p, q)."""
    walk_len = 2 * b * b + b - 2
    p, q = 0, 1
    arcs = [(p, q)]
    rs = [p]
    nxt = 2
    for _ in range(walk_len):
        z = nxt
        nxt += 1
        arcs.append((z, rs[-1]))
        arcs.append((z, q))
        rs.append(z)
    u, r_last = rs[-2], rs[-1]
    ws = [r_last]
    for _ in range(b):
        z = nxt
        nxt += 1
        arcs.append((z, ws[-1]))
        arcs.append((z, u))
        ws.append(z)
    return build_digraph(nxt, arcs), p, q, rs, ws


class TestEmbedIOrII:
    def test_forced_cycle_gadget(self):
        # a lone length-g cycle stops the walk at its first step
        b, g = 1, 4
        host = directed_cycle(4)
        gadget = embed_gadget_i_or_ii(host, 0, 1, b, g)
        assert gadget.kind is GadgetKind.TYPE_I
        assert gadget.cycle == (0, 1, 2, 3)
        assert validate_gadget(host, gadget, b, g)

    @pytest.mark.parametrize("b", [1, 2])
    def test_walk_closure_extended_gadget(self, b):
        host, p, q, rs, ws = _walk_closure_host(b)
        g = 4 * b * b
        gadget = embed_gadget_i_or_ii(host, p, q, b, g)
        assert gadget.kind is GadgetKind.TYPE_II_EXTENDED
        assert gadget.link == ("first_to_second",)
        assert gadget.p1 == tuple(reversed(rs))
        assert gadget.p2 == tuple(reversed(ws))
        assert validate_gadget(host, gadget, b, g)

    def test_property_violated(self):
        host = build_digraph(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(PropertyViolated) as info:
            embed_gadget_i_or_ii(host, 0, 1, 1, 4)
        assert info.value.arc == (0, 1)

    @pytest.mark.parametrize("b", [0, -1])
    def test_walk_length_below_one_is_bad_params(self, b):
        with pytest.raises(BadParams):
            embed_gadget_i_or_ii(directed_cycle(4), 0, 1, b, 4)

    def test_outcomes_on_random_cyclic_lifts(self):
        # every third arc of 40 seeded cyclic lifts at b in {1, 2} and
        # g in 3..6; a second walk that meets a cycle always closes into
        # a back-arc gadget, and only the walks' own arcs are too short
        rng = random.Random(11)
        seen = Counter()
        for _ in range(40):
            host = _cyclic_lift(rng)
            for p, q in list(host.arcs())[::3]:
                for b in (1, 2):
                    for g in range(3, 7):
                        try:
                            gadget = embed_gadget_i_or_ii(host, p, q, b, g)
                        except PropertyViolated:
                            seen["property-violated"] += 1
                        except cab._Stuck as stuck:
                            seen[stuck.reason] += 1
                            if stuck.reason == "girth-too-small":
                                assert set(stuck.details) == {"arc"}
                        else:
                            seen["/".join((gadget.kind.value, *(gadget.link or ())[:1]))] += 1
        assert seen["dominating-extended/back_arc"] >= 40
        assert "embedded-gadget-invalid" not in seen
        assert seen == {
            "cycle": 2406,
            "dominating-extended/back_arc": 54,
            "dominating-extended/first_to_second": 8,
            "girth-too-small": 3476,
            "property-violated": 6768,
            "walk-collision": 64,
        }


def _cyclic_lift(rng):
    """Random cyclic lift: a base digraph on 3-6 vertices, each base arc
    (u, v) lifted with a random shift c to the arcs (u, i) -> (v, i + c)
    modulo the lift size 4-15."""
    base_n = rng.randrange(3, 7)
    size = rng.randrange(4, 16)
    arcs = []
    for u in range(base_n):
        for v in range(base_n):
            if u != v and rng.random() < 0.6:
                c = rng.randrange(size)
                arcs.extend((u * size + i, v * size + (i + c) % size) for i in range(size))
    return build_digraph(base_n * size, arcs)


def _merge_gadget_host(b, d_width):
    """A (2b-1)-subdivided tree of width d_width, one starving branch
    vertex, and a back arc that creates the merge target."""
    arm = 2 * b - 1
    arcs = []
    nxt = 1
    root = 0
    level1 = []
    for _ in range(d_width):
        chain = [root] + list(range(nxt, nxt + arm))
        nxt += arm
        arcs.extend(zip(chain, chain[1:]))
        level1.append(chain[-1])
    rich, poor = level1[0], level1[1]
    for _ in range(d_width):
        chain = [rich] + list(range(nxt, nxt + arm))
        nxt += arm
        arcs.extend(zip(chain, chain[1:]))
    stub = [poor] + list(range(nxt, nxt + max(arm - 1, 1) - (1 if arm > 1 else 0)))
    if arm > 1:
        nxt = stub[-1] + 1
        arcs.extend(zip(stub, stub[1:]))
        w = stub[-1]
    else:
        w = poor
    arcs.append((w, rich))  # the back arc into the other branch
    return build_digraph(nxt, arcs), root, poor, rich


class TestEmbedIII:
    @pytest.mark.parametrize("b", [1, 2])
    def test_planted_tree_host(self, b):
        d_width = 2
        host, root, poor, rich = _merge_gadget_host(b, d_width)
        p0, gadget = embed_gadget_iii(host, root, b, h=2, width=d_width)
        assert gadget.kind is GadgetKind.TYPE_III
        assert validate_gadget(host, gadget, b, 1)
        assert p0[0] == root and p0[-1] == gadget.p
        assert set(p0) & gadget.vertices() == {gadget.p}

    def test_starving_root(self):
        host = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(PreconditionUnverifiable):
            embed_gadget_iii(host, 0, b=2, h=2, width=3)

    def test_arm_length_below_one_is_bad_params(self):
        with pytest.raises(BadParams):
            embed_gadget_iii(directed_cycle(4), 0, b=0, h=2, width=2)


class TestMergeRound:
    def test_merge_host_cuts_off_every_chain_vertex_but_the_head(self, monkeypatch):
        # a round whose scan finds no move grows a merge gadget from the
        # chain's head, in the working graph minus the rest of the chain
        work = synthetic.ring_of_cycle_gadgets(12)
        params = CabParams(a=2, b=1)
        growth = cab._seed_chain(work, params, SearchBudget(10**6))
        vm = growth.spine[-1]
        gone = growth.index.keys() - {vm}
        assert gone
        handed = []

        class Handed(Exception):
            pass

        def fake_embed(host, v, b, h, width, budget=None):
            handed.append((host, v))
            raise Handed

        monkeypatch.setattr(cab, "_scan", lambda *args, **kwargs: None)
        monkeypatch.setattr(cab, "embed_gadget_iii", fake_embed)
        with pytest.raises(Handed):
            cab._grow_and_close(work, params, SearchBudget(10**6), [])
        ((host, v),) = handed
        assert v == vm
        for x, y in work.arcs():
            assert host.has_arc(x, y) == (x not in gone and y not in gone)
        for x in work.vertices():
            if x in gone:
                assert not any(host.has_arc(x, y) for y in host.out_nbrs(x))
            else:
                assert tuple(host.out_nbrs(x)) == tuple(y for y in work.out_nbrs(x) if y not in gone)


def _reference_gadget_index_of(chain, x, below):
    """Largest arc index under ``below`` whose gadget holds x, plain arcs
    read as trivial gadgets."""
    for idx in range(below - 1, -1, -1):
        if x in chain.gadget_at(idx).vertices():
            return idx
    return None


def _growth_steps():
    """cab's growth state after each of its extensions, with the same
    chain built independently as a plain ``Chain``.

    Each state replays a seeded random chain up to its last gadget,
    then takes one gadget of each chain kind behind a plain lead of 0
    to 2 arcs, so a gadget sits at the very end of the tail too.
    """
    for seed in range(6):
        rng = random.Random(seed)
        b = 1 + seed % 2
        alloc = synthetic.IdAllocator()
        chain = synthetic.random_chain(rng, alloc, b, 4 * b * b, 2 + 2 * seed)[1]
        growth = cab._Growth(chain.spine[0])
        spine, gadgets = [chain.spine[0]], {}

        def extend(lead, gadget):
            assert growth.extend(lead, gadget)
            spine.extend(lead + (gadget.q,))
            gadgets[len(spine) - 2] = gadget
            return growth, Chain(spine=tuple(spine), gadgets=dict(gadgets))

        for idx in sorted(chain.gadgets):
            yield extend(chain.spine[growth.m + 1 : idx + 1], chain.gadgets[idx])
        for kind in (GadgetKind.TYPE_I, GadgetKind.TYPE_II_BASIC, GadgetKind.TYPE_III):
            lead = tuple(alloc.take(rng.randrange(3)))
            p = lead[-1] if lead else growth.spine[-1]
            yield extend(lead, synthetic.make_gadget(rng, alloc, kind, b, 4 * b * b, p=p)[1])


def _reference_chain_vertices(chain):
    return set(chain.spine).union(*(g.vertices() for g in chain.gadgets.values()))


class TestChainLookups:
    def test_gadget_index_of_matches_reference(self):
        # the index holds each vertex's largest arc; below any bound over
        # that arc, the largest arc under the bound is the same one
        for growth, chain in _growth_steps():
            index = growth.index
            absent = max(index) + 1
            assert index.get(absent) is None
            assert index.keys() == _reference_chain_vertices(chain)
            for x in index:
                assert index[x] == _reference_gadget_index_of(chain, x, chain.m)
                for below in range(index[x] + 1, chain.m + 1):
                    assert _reference_gadget_index_of(chain, x, below) == index[x]

    def test_tail_vertex_set_matches_subchain(self):
        for growth, chain in _growth_steps():
            index = growth.index
            for i0 in range(chain.m):
                sub = chain.subchain(i0, chain.m)
                tail = {x for x in index if index[x] >= i0}
                assert tail == sub.vertex_set() == _reference_chain_vertices(sub)

    def test_extended_seeds_the_fresh_index(self):
        # an extension grows the same containers, moves the old head onto
        # the new first arc and leaves every other old entry alone
        previous = None
        for growth, chain in _growth_steps():
            held = (growth.spine, growth.on_spine, growth.gadgets, growth.index)
            if previous is not None and previous[0] is growth:
                _, containers, before, old_m = previous
                assert all(now is then for now, then in zip(held, containers))
                kept = {x: growth.index[x] for x in before}
                assert kept == {**before, chain.spine[old_m]: old_m}
            previous = (growth, held, dict(growth.index), chain.m)

    def test_every_extension_matches_the_rebuilt_chain(self):
        for growth, chain in _growth_steps():
            assert growth.index == {
                x: _reference_gadget_index_of(chain, x, chain.m) for x in _reference_chain_vertices(chain)
            }
            assert (tuple(growth.spine), growth.on_spine, growth.gadgets) == (chain.spine, set(chain.spine), chain.gadgets)
            tail = (max(growth.index) + 1, max(growth.index) + 2)
            for i in range(chain.m):
                sub = chain.subchain(i, chain.m)
                assert growth.cut(i, ()) == sub
                assert growth.cut(i, tail) == Chain(spine=sub.spine + tail, gadgets=sub.gadgets)


class TestFreshGadgetChecks:
    def test_rejections_leave_the_growth_state_unchanged(self):
        # a fresh gadget larger than a good chain allows, or one meeting
        # the extended spine off its own arc, is refused; the explored
        # path runs 1 -> 10 -> 11 and every cycle below goes through
        # (10, 11), so the lead is (10,)
        params = CabParams(a=2, b=1)
        growth = cab._Growth(0)
        growth.extend((), gadgets.Gadget(kind=GadgetKind.TYPE_I, p=0, q=1, cycle=(0, 1, 2, 3)))
        parent = {10: 1, 11: 10}
        state = (list(growth.spine), set(growth.on_spine), dict(growth.gadgets), dict(growth.index))
        too_large = (10, 11, *range(100, 100 + params.max_gadget_size - 1))
        for cycle in (too_large, (10, 11, 0, 12)):
            gadget = gadgets.Gadget(kind=GadgetKind.TYPE_I, p=10, q=11, cycle=cycle)
            assert not cab._extend_with_fresh_gadget(growth, parent, 11, gadget, params)
            assert (growth.spine, growth.on_spine, growth.gadgets, growth.index) == state
        gadget = gadgets.Gadget(kind=GadgetKind.TYPE_I, p=10, q=11, cycle=too_large[:-1])
        assert cab._extend_with_fresh_gadget(growth, parent, 11, gadget, params)
        assert growth.spine == [0, 1, 10, 11] and growth.gadgets[2] == gadget


class TestGrowthRoundCopies:
    def test_rounds_ask_no_chain_vertex_set(self, monkeypatch):
        # a round that rebuilt or copied the chain's vertex set would leave
        # every certificate, and so the golden hash, unchanged
        calls = {"vertex_set": 0, "close_chain": 0}
        vertex_set, close_chain = gadgets.Chain.vertex_set, cab.close_chain

        def counted_vertex_set(self):
            calls["vertex_set"] += 1
            return vertex_set(self)

        def counted_close_chain(*args, **kwargs):
            calls["close_chain"] += 1
            return close_chain(*args, **kwargs)

        monkeypatch.setattr(gadgets.Chain, "vertex_set", counted_vertex_set)
        monkeypatch.setattr(cab, "close_chain", counted_close_chain)
        log = []
        find_cab(synthetic.ring_of_cycle_gadgets(64), 2, 1, log=log)
        assert sum(e["event"] == "extend" for e in log) > 60
        assert calls["vertex_set"] <= calls["close_chain"]


class TestFindCabWiredHosts:
    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_completeness(self, a, b):
        rng = random.Random(100 * a + b)
        for _ in range(10):
            a1 = rng.randrange(1, a + 2)
            a2 = a + 2 - a1
            if a1 < 1 or a2 < 1 or (a1 == 1 and b < 1):
                continue
            host, _, _ = wired_cycle_host(rng, a1, a2, b)
            cert = find_cab(host, a, b)
            assert not isinstance(cert, NotFound)
            assert validate_certificate(host, pattern_cab(a, b), cert)

    def test_degenerate_a(self):
        with pytest.raises(DegeneratePattern):
            find_cab(bioriented_clique(4), 1, 2)


class TestFindCabSoundness:
    def test_random_hosts_never_lie(self, rng):
        outcomes = {"cert": 0, "notfound": 0, "budget": 0}
        for _ in range(150):
            n = rng.randrange(6, 40)
            d = rand_digraph(rng, n, rng.uniform(0.05, 0.5))
            try:
                out = find_cab(d, 2, 1, budget=4000)
            except BudgetExceeded as exc:
                assert "consumed" in exc.details
                outcomes["budget"] += 1
                continue
            if isinstance(out, NotFound):
                assert out.reason
                outcomes["notfound"] += 1
            else:
                assert validate_certificate(d, pattern_cab(2, 1), out)
                outcomes["cert"] += 1
        assert sum(outcomes.values()) == 150

    def test_zero_budget_means_zero(self):
        # not an oriented cycle, so the first charge comes from the growth loop
        with pytest.raises(BudgetExceeded) as exc:
            find_cab(bioriented_clique(5), 2, 1, budget=0)
        assert exc.value.details["phase"] == "embed-bfs"

    def test_notfound_carries_stuck_state(self):
        d = directed_cycle(8)
        out = find_cab(d, 2, 1, budget=5000)
        assert isinstance(out, NotFound)
        assert out.reason and isinstance(out.details, dict)


class TestCycleShape:
    @pytest.mark.parametrize("arcs", [
        [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)],  # a digon beside a triangle
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],  # two disjoint triangles
        [(0, 1), (1, 2), (2, 0), (0, 3)],  # a degree-3 vertex
    ])
    def test_every_vertex_of_degree_two_but_not_one_cycle(self, arcs):
        assert cycle_shape(arcs) is None
        assert digraph_cycle_shape(build_digraph(1 + max(map(max, arcs)), arcs)) is None

    def test_one_cycle_and_the_empty_graph(self):
        assert digraph_cycle_shape(directed_cycle(3)).dicycle == (0, 1, 2)
        assert digraph_cycle_shape(bioriented_clique(2)).dicycle == (0, 1)
        assert digraph_cycle_shape(build_digraph(0, [])) is None
        # as many arcs as vertices, one of them isolated
        assert digraph_cycle_shape(build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 0)])) is None


class TestOrientedCycleDispatch:
    def test_directed_cycle_pattern(self):
        d = rand_out_digraph(random.Random(1), 20, 3)
        cert = find_oriented_cycle_subdivision(d, directed_cycle(3))
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, directed_cycle(3), cert)

    def test_two_block_pattern_route(self):
        # C(2,1) as an orientation: one source, one sink, blocks 2 and 1
        pattern = build_digraph(3, [(0, 2), (2, 1), (0, 1)])
        d = rand_out_digraph(random.Random(2), 15, 2)
        cert = find_oriented_cycle_subdivision(d, pattern)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern, cert)

    def test_two_block_route_forwards_log(self):
        d, pattern = bioriented_clique(7), pattern_two_block(3, 2)
        log, direct = [], []
        find_oriented_cycle_subdivision(d, pattern, log=log)
        find_two_block(d, 3, 2, log=direct)
        assert [e["event"] for e in log] == ["extend", "close"]
        assert log == direct

    def test_two_source_pattern_on_wired_host(self):
        rng = random.Random(3)
        host, _, _ = wired_cycle_host(rng, 2, 2, 2)
        pattern = pattern_cab(2, 2)
        cert = find_oriented_cycle_subdivision(host, pattern)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(host, pattern, cert)

    def test_block_lengths_respected(self):
        # pattern with blocks of different lengths must land on long-enough
        # host blocks
        rng = random.Random(4)
        host, _, _ = wired_cycle_host(rng, 2, 2, 3)
        pattern = build_digraph(
            6, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 1)]
        )  # one source orientation of C6 with blocks 4 and 2
        cert = find_oriented_cycle_subdivision(host, pattern)
        if not isinstance(cert, NotFound):
            assert validate_certificate(host, pattern, cert)

    def test_rejects_non_cycle_pattern(self):
        from digraphsub.errors import BadParams

        with pytest.raises(BadParams):
            find_oriented_cycle_subdivision(bioriented_clique(3), bioriented_clique(3))


class TestChainMachineEndToEnd:
    """Hosts engineered so the a=2, b=1 constants are desk-feasible and
    the full seed/extend/close loop runs for real."""

    def test_ring_of_cycle_gadgets(self):
        from digraphsub.synthetic import ring_of_cycle_gadgets

        d = ring_of_cycle_gadgets(230)
        log = []
        cert = find_cab(d, 2, 1, budget=10**6, log=log)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern_cab(2, 1), cert)
        assert any(e["event"] == "close" for e in log)
        assert sum(1 for e in log if e["event"] == "extend") > 200

    def test_ring_closes_only_past_the_tail_window(self):
        # a closure must land before the last tail_window spine arcs, and
        # the whole ring of m vertices carries a spine of m - 1 arcs
        assert CabParams(a=2, b=1).tail_window == 190
        short = find_cab(synthetic.ring_of_cycle_gadgets(191), 2, 1)
        assert isinstance(short, NotFound) and short.reason == "degree-below-threshold"
        d = synthetic.ring_of_cycle_gadgets(192)
        cert = find_cab(d, 2, 1)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern_cab(2, 1), cert)

    def test_stalled_witness_lists_each_end_once(self):
        out = find_cab(synthetic.ring_of_cycle_gadgets(64), 2, 1)
        assert out.reason == "degree-below-threshold"
        assert out.details["witness"] == (63, (63,))

    def test_trim_cuts_rows_past_the_degree_level(self):
        # the ring plus arcless vertices and a hub with an arc to every
        # other vertex: the hub's is the one row longer than k, and
        # trimming keeps its k lowest out-neighbours
        k = CabParams(a=2, b=1).k
        hub = k + 585
        d = build_digraph(hub + 1, [
            *synthetic.ring_of_cycle_gadgets(192).arcs(), *((hub, v) for v in range(hub)),
        ])
        log = []
        cert = find_cab(d, 2, 1, log=log)
        assert log[0] == {"event": "trim", "arcs_removed": 585}
        trimmed = Digraph(d.n, tuple(d.out_nbrs(v)[:k] for v in d.vertices()))
        assert cert == find_cab(trimmed, 2, 1)

    def test_one_trim_serves_every_contraction(self):
        # the pendant host plus arcless vertices and a hub that avoids
        # the pendant arc (0, 1): only the hub's row is longer than k,
        # and no contraction makes a row longer again, so the one trim
        # before growth is the only one the run needs
        k = CabParams(a=2, b=1).k
        base = synthetic.pendant_contraction_host(192)
        hub = k + 300
        d = build_digraph(hub + 1, [*base.arcs(), *((hub, v) for v in range(2, hub))])
        log = []
        cert = find_cab(d, 2, 1, budget=10**6, log=log)
        assert not isinstance(cert, NotFound)
        events = [e["event"] for e in log]
        assert events.count("trim") == 1 and events[:2] == ["trim", "contract"]
        assert log[0]["arcs_removed"] == hub - 2 - k
        trimmed = Digraph(d.n, tuple(d.out_nbrs(v)[:k] for v in d.vertices()))
        assert cert == find_cab(trimmed, 2, 1, budget=10**6)
        work = trimmed
        for e in log[1:]:
            if e["event"] == "contract":
                before = work
                work, _ = contract_arc(work, *e["arc"], keep=e["arc"][1])
                assert all(work.out_degree(v) <= before.out_degree(v) for v in work.vertices())

    def test_ring_of_dominating_gadgets(self):
        from digraphsub.synthetic import ring_of_dominating_gadgets

        d = ring_of_dominating_gadgets(220)
        log = []
        cert = find_cab(d, 2, 1, budget=10**6, log=log)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern_cab(2, 1), cert)

    def test_contraction_and_lift(self):
        from digraphsub.synthetic import pendant_contraction_host

        d = pendant_contraction_host(210)
        log = []
        cert = find_cab(d, 2, 1, budget=10**6, log=log)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern_cab(2, 1), cert)
        assert any(e["event"] == "contract" for e in log)

    def test_contraction_on_relabelled_host(self):
        # an isomorphic copy of the pendant host: contracted vertices
        # stay behind as isolated ids, so the certificate may use the
        # largest ids
        from digraphsub.synthetic import pendant_contraction_host

        base = pendant_contraction_host(210)
        swap = {625: 631, 631: 625}
        d = build_digraph(base.n, [(swap.get(u, u), swap.get(v, v)) for u, v in base.arcs()])
        log = []
        cert = find_cab(d, 2, 1, budget=10**6, log=log)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern_cab(2, 1), cert)
        assert any(e["event"] == "contract" for e in log)


class TestContractionLifts:
    """The shared lift, with the head kept (as cab contracts) and with
    the tail kept (as k3e contracts)."""

    def test_single_redirect_splice(self):
        cert = SubdivisionCertificate(
            branch={0: 5, 1: 8},
            paths={(0, 1): (5, 3, 8), (1, 0): (8, 5)},
        )
        rec = ContractionRecord(tail=9, head=8, keep=8, tail_ins=(3,))
        lifted = lift_contraction(cert, rec)
        assert lifted.paths[(0, 1)] == (5, 3, 9, 8)
        assert lifted.paths[(1, 0)] == (8, 5)

    def test_double_redirect_relocates_branch(self):
        # y = 8 is a sink image receiving both redirected arcs
        cert = SubdivisionCertificate(
            branch={0: 1, 1: 2, 2: 8, 3: 6},
            paths={
                (0, 2): (1, 3, 8),
                (1, 2): (2, 4, 8),
                (0, 3): (1, 6),
                (1, 3): (2, 6),
            },
        )
        rec = ContractionRecord(tail=9, head=8, keep=8, tail_ins=(3, 4))
        lifted = lift_contraction(cert, rec)
        assert lifted.branch[2] == 9
        assert lifted.paths[(0, 2)] == (1, 3, 9)
        assert lifted.paths[(1, 2)] == (2, 4, 9)

    def test_untouched_certificate_passes_through(self):
        cert = SubdivisionCertificate(branch={0: 1, 1: 2}, paths={(0, 1): (1, 2), (1, 0): (2, 1)})
        rec = ContractionRecord(tail=9, head=5, keep=5, tail_ins=(4,))
        assert lift_contraction(cert, rec) == cert

    # K3-e on branch vertices 0, 1, 2 after the arc (0, 9) was merged
    # into its tail 0; the merged vertex heads (0, 1) and receives the
    # arcs from 1 and 2
    K3E_CHILD = SubdivisionCertificate(
        branch={0: 0, 1: 1, 2: 2},
        paths={(0, 1): (0, 1), (1, 0): (1, 0), (1, 2): (1, 2), (2, 1): (2, 1), (2, 0): (2, 0)},
    )

    def test_kept_tail_all_in_arcs_real(self):
        rec = ContractionRecord(tail=0, head=9, keep=0, tail_ins=(1, 2))
        lifted = lift_contraction(self.K3E_CHILD, rec)
        assert lifted.branch == self.K3E_CHILD.branch
        assert lifted.paths == {**self.K3E_CHILD.paths, (0, 1): (0, 9, 1)}

    def test_kept_tail_all_in_arcs_redirected(self):
        rec = ContractionRecord(tail=0, head=9, keep=0, tail_ins=(5,))
        lifted = lift_contraction(self.K3E_CHILD, rec)
        assert lifted.branch == {0: 9, 1: 1, 2: 2}
        assert lifted.paths == {**self.K3E_CHILD.paths, (0, 1): (9, 1), (1, 0): (1, 9), (2, 0): (2, 9)}

    def test_kept_tail_mixed_in_arcs(self):
        # the arc from 1 is real, the one from 2 was redirected: the head
        # takes the branch role and the tail stays on the real in-path
        rec = ContractionRecord(tail=0, head=9, keep=0, tail_ins=(1,))
        lifted = lift_contraction(self.K3E_CHILD, rec)
        assert lifted.branch == {0: 9, 1: 1, 2: 2}
        assert lifted.paths == {**self.K3E_CHILD.paths, (0, 1): (9, 1), (1, 0): (1, 0, 9), (2, 0): (2, 9)}


class TestSelfChecks:
    def test_corrupt_lift_raises_under_optimize(self):
        # the final validation is an explicit raise, so ``python -O``
        # (which strips every assert) must still reject a certificate
        # whose contractions were never lifted
        script = """
            from digraphsub import cab
            from digraphsub.errors import InvariantViolation
            from digraphsub.synthetic import pendant_contraction_host

            assert not __debug__
            cab.lift_contraction = lambda cert, record: cert
            try:
                cab.find_cab(pendant_contraction_host(192), 2, 1, budget=10**6)
            except InvariantViolation as exc:
                print("raised:", exc)
        """
        proc = run_script(script, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: lifted certificate invalid"), proc.stdout


class TestStagedClosures:
    """Hosts that force each closure branch of the growth loop."""

    def test_condition2_closure(self):
        from digraphsub.synthetic import condition2_closure_host

        d = condition2_closure_host(230)
        log = []
        cert = find_cab(d, 2, 1, budget=10**6, log=log)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern_cab(2, 1), cert)
        assert any(e.get("via") == "dominating-gadget" for e in log)

    def test_cycle_walk_closure(self):
        from digraphsub.synthetic import cycle_walk_closure_host

        d = cycle_walk_closure_host(230)
        log = []
        cert = find_cab(d, 2, 1, budget=10**6, log=log)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(d, pattern_cab(2, 1), cert)
        assert any(e.get("via") == "cycle-gadget" for e in log)


class TestDispatchLadder:
    def test_wired_host_large_params(self):
        host, _, _ = wired_cycle_host(random.Random(9), 3, 3, 4)
        cert = find_cab(host, 4, 4)
        assert not isinstance(cert, NotFound)
        assert validate_certificate(host, pattern_cab(4, 4), cert)

    def test_reduction_failure_path_is_honest(self):
        # digon-rich host: the growth loop stalls on girth and its stuck
        # state comes back
        pattern = pattern_cab(2, 2)
        d = bioriented_clique(12)
        out = find_oriented_cycle_subdivision(d, pattern, budget=20000)
        assert isinstance(out, NotFound)
        assert out.reason

    def test_one_cab_call_gets_the_callers_budget_and_log(self, monkeypatch):
        seen = []

        def fake_find_cab(d, a, b, budget=None, log=None):
            seen.append((budget, log))
            return NotFound("stub", {})

        monkeypatch.setattr(cab, "find_cab", fake_find_cab)
        budget, log = SearchBudget(max_nodes=1000), []
        out = find_oriented_cycle_subdivision(bioriented_clique(5), pattern_cab(2, 1), budget, log)
        assert out == NotFound("stub", {})
        assert len(seen) == 1
        assert seen[0][0] is budget and seen[0][1] is log

    @pytest.mark.parametrize("a, b", [(2, 1), (3, 1), (2, 2)])
    def test_cab_route_misses_exactly_as_find_cab(self, a, b):
        rng = random.Random(16 + 10 * a + b)
        misses = 0
        for _ in range(6):
            d = rand_digraph(rng, rng.randrange(20, 60), rng.uniform(0.05, 0.3))
            direct = find_cab(d, a, b, 10**5)
            if isinstance(direct, NotFound):
                misses += 1
                assert find_oriented_cycle_subdivision(d, pattern_cab(a, b), 10**5) == direct
        assert misses

    def test_every_found_cycle_reads_off_as_the_orientation(self, monkeypatch):
        # every non-directed orientation of length 3..10 against a host
        # that is exactly a C_{a,b} (or, with one source, C(k1, k2))
        # subdivision whose blocks are up to 2 longer than needed: the
        # router's re-reading never misses, so it raises on a miss
        calls = []

        def read_off(make_pattern):
            def finder(d, x, y, budget=None, log=None):
                calls.append((x, y))
                return certificate_from_cycle(set(d.arcs()), make_pattern(x, y), d)
            return finder

        monkeypatch.setattr(cab, "find_cab", read_off(pattern_cab))
        monkeypatch.setattr(cab, "find_two_block", read_off(pattern_two_block))
        rng = random.Random(16)
        checked = 0
        for length in range(3, 11):
            for mask in range(1, 2**length - 1):
                orientation = build_digraph(length, [
                    (i, (i + 1) % length) if mask >> i & 1 else ((i + 1) % length, i)
                    for i in range(length)
                ])
                shape = digraph_cycle_shape(orientation)
                lens = sorted((len(blk.path) - 1 for blk in shape.blocks), reverse=True)
                if shape.sources == 1:
                    params = (lens[0], lens[1])
                    host_lens = [k + rng.randint(0, 2) for k in lens]
                else:
                    params = (shape.sources, lens[0])
                    host_lens = [lens[0] + rng.randint(0, 2) for _ in lens]
                host = _alternating_cycle(host_lens)
                cert = find_oriented_cycle_subdivision(host, orientation)
                assert calls.pop() == params
                assert validate_certificate(host, orientation, cert)
                checked += 1
        assert checked == 2024

    def test_no_arcs(self):
        from digraphsub.core import build_digraph

        assert find_cab(build_digraph(5, []), 2, 1).reason == "no-seedable-arc"


def _alternating_cycle(block_lens: list[int]) -> Digraph:
    """One oriented cycle whose blocks, in cyclic order, have the given
    lengths (an even number of them) and alternate in direction."""
    n = sum(block_lens)
    arcs, start = [], 0
    for i, length in enumerate(block_lens):
        run = [(start + j) % n for j in range(length + 1)]
        if i % 2:
            run.reverse()
        arcs.extend(zip(run, run[1:]))
        start += length
    return build_digraph(n, arcs)


class TestGoldenAnswers:
    def test_answers_match_recorded_hash(self):
        # any change to the growth loop, a contraction or a lift that
        # alters a certificate, a miss reason or its details changes it
        digest = hashlib.sha256()
        for line in _golden_answers():
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_CAB.read_text().strip()

    def test_contractions_meet_their_precondition(self, monkeypatch):
        # find_cab contracts an arc (x, y) with no guard of its own: the
        # walks must already have ruled out the arc (y, x) and every
        # in-neighbour shared by x and y
        seen = []

        def recording(work, x, y, keep):
            shared = set(work.in_nbrs(x)) & set(work.in_nbrs(y)) - {x, y}
            seen.append((x, y, work.has_arc(y, x), shared))
            return contract_arc(work, x, y, keep)

        monkeypatch.setattr(cab, "contract_arc", recording)
        for _ in _golden_answers():
            pass
        assert seen
        assert [c for c in seen if c[2] or c[3]] == []


def _golden_outcome(d, a, b, budget) -> str:
    try:
        found = find_cab(d, a, b, budget=budget)
    except BudgetExceeded as exc:
        return f"budget {sorted(exc.details.items())}"
    if isinstance(found, NotFound):
        return f"miss {found.reason} {sorted(found.details.items())}"
    return f"cert {sorted(found.branch.items())} {sorted(found.paths.items())}"


def _golden_answers():
    """The five staged hosts at m = 100 (a miss) and m = 192 (a
    certificate), relabelled pendant hosts that certify through two
    contractions or miss after them, wired hosts, then criterion-7-style
    random hosts at budget 3000."""
    for kind in STAGED_KINDS:
        for m in (100, 192):
            yield _golden_outcome(getattr(synthetic, kind)(m), 2, 1, 10**6)
    base = synthetic.pendant_contraction_host(192)
    n = base.n
    relabels = [{0: 1, 1: 0}, {1: n - 1, n - 1: 1}, {n - 7: n - 1, n - 1: n - 7}, {50: n - 3, n - 3: 50}]
    relabels.append({v: n - 1 - v for v in range(n)})
    for relabel in relabels:
        d = build_digraph(n, [(relabel.get(u, u), relabel.get(v, v)) for u, v in base.arcs()])
        yield _golden_outcome(d, 2, 1, 10**6)
    rng = random.Random(0xCAB6)
    for a in (2, 3):
        for b in (1, 2, 3):
            for _ in range(4):
                a1 = rng.randrange(1, a + 2)
                host, _, _ = wired_cycle_host(rng, a1, a + 2 - a1, b)
                yield _golden_outcome(host, a, b, 10**6)
    for _ in range(300):
        a, b = rng.choice((2, 2, 2, 3)), rng.choice((1, 1, 2))
        n = rng.randrange(6, 40) if rng.random() < 0.8 else rng.randrange(40, 120)
        d = rand_digraph(rng, n, rng.uniform(0.02, 0.4))
        yield f"host {n} {a} {b} {d.m}"
        yield _golden_outcome(d, a, b, 3000)
