import hashlib
import math
import random
from pathlib import Path

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
    bioriented_clique,
    build_digraph,
    directed_cycle,
    directed_girth,
    min_out_degree,
    pattern_cab,
)
from digraphsub.errors import (
    BudgetExceeded,
    DegeneratePattern,
    PreconditionUnverifiable,
    PropertyViolated,
    RetriesExhausted,
)
from digraphsub.gadgets import CabParams, Chain, GadgetKind, validate_gadget
from digraphsub.oracle import (
    ContractionRecord,
    SearchBudget,
    SubdivisionCertificate,
    lift_contraction,
    validate_certificate,
)
from digraphsub.outcome import NotFound
from digraphsub.synthetic import wired_cycle_host

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
            cab._grow_and_close(work, params, SearchBudget(10**6), None)
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
        # digon-rich host: the growth loop stalls on girth, the reduction
        # retry cannot reach the derived degree level, and the original
        # stuck state comes back
        pattern = pattern_cab(2, 2)
        d = bioriented_clique(12)
        out = find_oriented_cycle_subdivision(d, pattern, budget=20000, seed=3)
        assert isinstance(out, NotFound)
        assert out.reason

    def test_one_allowance_for_both_cab_attempts(self, monkeypatch):
        seen = []

        def fake_find_cab(d, a, b, budget=None, log=None):
            seen.append(budget)
            return NotFound("stub", {})

        monkeypatch.setattr(cab, "find_cab", fake_find_cab)
        monkeypatch.setattr(cab, "reduce_girth", lambda d, k, g, seed=None: (d, list(range(d.n))))
        out = find_oriented_cycle_subdivision(bioriented_clique(5), pattern_cab(2, 1), budget=1000)
        assert isinstance(out, NotFound)
        assert len(seen) == 2
        assert isinstance(seen[0], SearchBudget) and seen[0].max_nodes == 1000
        assert seen[0] is seen[1]

    def test_no_arcs(self):
        from digraphsub.core import build_digraph

        assert find_cab(build_digraph(5, []), 2, 1).reason == "no-seedable-arc"


class TestGoldenAnswers:
    def test_answers_match_recorded_hash(self):
        # any change to the growth loop, a contraction or a lift that
        # alters a certificate, a miss reason or its details changes it
        digest = hashlib.sha256()
        for line in _golden_answers():
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_CAB.read_text().strip()


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
