import hashlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from digraphsub.core import (
    bioriented_clique,
    build_digraph,
    directed_cycle,
    directed_path,
    bfs_levels,
)
from digraphsub import menger
from digraphsub.errors import ArcPresent, EmptyGraph, SameVertex, VertexInSet, VertexOutOfRange
from digraphsub.menger import (
    fan_to_set,
    strong_arc_connectivity,
    vertex_disjoint_paths,
)

from .conftest import rand_digraph, rand_out_digraph, run_script

GOLDEN_MENGER = Path(__file__).parent / "data" / "menger_golden.sha256"


def _without(d, gone):
    """``d`` with the arcs in ``gone`` removed."""
    return build_digraph(d.n, [a for a in d.arcs() if a not in gone])


def _all_dipaths(d, u, v):
    """Exhaustive simple-dipath listing, used as a tiny independent oracle."""
    out = []

    def grow(path):
        if path[-1] == v:
            out.append(tuple(path))
            return
        for w in d.out_nbrs(path[-1]):
            if w not in path:
                path.append(w)
                grow(path)
                path.pop()

    grow([u])
    return out


class TestVertexDisjointPaths:
    def test_bivec_k4_two_paths(self):
        d = _without(bioriented_clique(4), [(0, 1)])
        res = vertex_disjoint_paths(d, 0, 1, 2)
        assert res.found
        inner = sorted(p[1] for p in res.paths)
        assert inner == [2, 3]

    def test_dipath_cut(self):
        res = vertex_disjoint_paths(directed_path(2), 0, 2, 2)
        assert not res.found
        assert res.cut == frozenset({1})

    def test_c5_single_path_only(self):
        d = directed_cycle(5)
        assert len(_all_dipaths(d, 0, 2)) == 1
        res = vertex_disjoint_paths(d, 0, 2, 2)
        assert not res.found
        assert len(res.cut) == 1

    def test_same_vertex(self):
        with pytest.raises(SameVertex):
            vertex_disjoint_paths(directed_cycle(3), 1, 1, 1)

    def test_arc_present(self):
        with pytest.raises(ArcPresent):
            vertex_disjoint_paths(directed_cycle(3), 0, 1, 1)

    @pytest.mark.parametrize("u,v", [(0, 9), (0, 4), (-1, 2), (2, -1), (4, 0)])
    def test_vertex_out_of_range(self, u, v):
        with pytest.raises(VertexOutOfRange):
            vertex_disjoint_paths(directed_cycle(4), u, v, 1)

    def test_k1_is_reachability(self, rng):
        for _ in range(200):
            d = rand_digraph(rng, 7, 0.25)
            u, v = rng.sample(range(7), 2)
            if d.has_arc(u, v):
                continue
            dist, _ = bfs_levels(d, u)
            assert vertex_disjoint_paths(d, u, v, 1).found == (v in dist)


class TestFanToSet:
    def test_star_fan(self):
        d = build_digraph(4, [(0, 1), (0, 2), (0, 3)])
        res = fan_to_set(d, 0, {1, 2, 3}, 3)
        assert res.found
        assert sorted(p[-1] for p in res.fan) == [1, 2, 3]
        assert all(len(p) == 2 for p in res.fan)

    def test_dipath_cut(self):
        res = fan_to_set(directed_path(2), 0, {2}, 2)
        assert not res.found
        assert res.cut == frozenset({1})

    def test_bivec_k3_fan(self):
        res = fan_to_set(bioriented_clique(3), 0, {1, 2}, 2)
        assert res.found
        assert sorted(p[-1] for p in res.fan) == [1, 2]

    def test_vertex_in_set(self):
        with pytest.raises(VertexInSet):
            fan_to_set(bioriented_clique(3), 0, {0, 1}, 1)

    @pytest.mark.parametrize("v,targets", [(0, {9}), (0, {1, 4}), (-1, {0, 1}), (7, {0, 1}), (0, {-2})])
    def test_vertex_out_of_range(self, v, targets):
        with pytest.raises(VertexOutOfRange):
            fan_to_set(bioriented_clique(4), v, targets, 2)

    def test_paths_clipped_at_first_target(self, rng):
        for _ in range(100):
            d = rand_digraph(rng, 8, 0.3)
            v = rng.randrange(8)
            targets = set(rng.sample([x for x in range(8) if x != v], 3))
            res = fan_to_set(d, v, targets, 2)
            if res.found:
                for p in res.fan:
                    assert p[-1] in targets
                    assert not (set(p[:-1]) & targets)


class TestArcConnectivity:
    def test_bivec_k3_by_brute_force(self):
        d = bioriented_clique(3)
        assert strong_arc_connectivity(d) == 2
        # independent cross-check: every single arc removal keeps it strong,
        # some pair disconnects it
        arcs = list(d.arcs())
        for a in arcs:
            assert strong_arc_connectivity(_without(d, [a])) >= 1
        assert any(
            strong_arc_connectivity(_without(d, pair)) == 0
            for pair in itertools.combinations(arcs, 2)
        )

    def test_c5(self):
        assert strong_arc_connectivity(directed_cycle(5)) == 1

    def test_a_unit_sent_back_against_an_arc(self):
        # one of its flows reaches 2 only by cancelling a unit, i.e. by
        # stepping from a vertex to an in-neighbour
        d = build_digraph(6, [(0, 1), (0, 5), (1, 2), (1, 4), (2, 0), (2, 3),
                              (3, 4), (3, 5), (4, 1), (4, 3), (5, 0), (5, 2)])
        assert strong_arc_connectivity(d) == 2
        assert all(strong_arc_connectivity(_without(d, [a])) == 1 for a in d.arcs())

    def test_dipath(self):
        assert strong_arc_connectivity(directed_path(3)) == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_bivec_clique_value(self, k):
        assert strong_arc_connectivity(bioriented_clique(k)) == k - 1

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            strong_arc_connectivity(build_digraph(1, []))


class TestDuality:
    def test_random_instances(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(400):
            n = rng.randrange(3, 9)
            d = rand_digraph(rng, n, rng.uniform(0.1, 0.5))
            u, v = rng.sample(range(n), 2)
            if d.has_arc(u, v):
                continue
            k = rng.randrange(1, 4)
            res = vertex_disjoint_paths(d, u, v, k)
            checked += 1
            if res.found:
                seen = set()
                for p in res.paths:
                    assert p[0] == u and p[-1] == v
                    inner = set(p[1:-1])
                    assert not (inner & seen)
                    seen |= inner
            else:
                dist, _ = bfs_levels(d, u, avoid=res.cut)
                assert v not in dist
        assert checked > 200


def _flow_ends(rng, d):
    """A source and goal set as the queries use them: a u-v query
    (``out_u`` to ``{in_v}``), a fan (``out_v`` to its targets'
    out-nodes) or the disjoint-cycle filter (``out_w`` to ``{in_w}``)."""
    n = d.n
    kind = rng.choice(("paths", "fan", "cycles"))
    if kind == "cycles":
        w = rng.randrange(n)
        return n + w, {w}
    v, *others = rng.sample(range(n), rng.randrange(2, min(n, 4) + 1))
    if kind == "fan" or d.has_arc(v, others[0]):
        return n + v, {n + y for y in others}
    return n + v, {others[0]}


def _split_capacities(d, flow):
    """Residual capacity of every arc of d's split network, by
    definition from d and the units the flow sends."""
    n = d.n
    cap = {}
    for v in d.vertices():
        cap[v, n + v] = 1 - flow.carries[v]
        cap[n + v, v] = flow.carries[v]
    for u, x in d.arcs():
        sent = int((u, x) in flow.arcs)
        cap[n + u, x] = n - sent
        cap[x, n + u] = sent
    return cap


def _check_residual(d, flow, s, goals):
    """The successors of every node but the goals (which a flow never
    expands) ascend and are the positive residual arcs of the explicit
    split network, and every other vertex passes on the unit it takes in."""
    n = d.n
    cap = _split_capacities(d, flow)
    for u in set(range(2 * n)) - goals:
        succ = list(flow.successors(u))
        assert succ == sorted(set(succ))
        assert succ == sorted(v for (w, v), c in cap.items() if w == u and c > 0)
    for x in set(d.vertices()) - {s - n} - {g % n for g in goals}:
        into = [p for p, y in flow.arcs if y == x]
        assert len(into) == sum(p == x for p, _ in flow.arcs) == flow.carries[x]
        assert into == ([flow.tail[x]] if flow.carries[x] else [])


class TestResidualRows:
    # ascending successors are what make every tie-break prefer the
    # lower node id

    def test_successors_ascend_and_match_the_split_network(self, rng):
        for _ in range(300):
            d = rand_digraph(rng, rng.randrange(2, 10), rng.uniform(0.2, 0.6))
            s, goals = _flow_ends(rng, d)
            flow = menger._SplitFlow(d)
            for _ in range(rng.randrange(4)):
                flow.augment(s, goals)
            _check_residual(d, flow, s, goals)

    def test_an_augmenting_path_frees_a_vertex(self):
        # the first path is 0-1-2-3-4; the second enters 3 from 6, runs
        # back along 3's and 2's units to out_1 and leaves 1 for 7, so
        # vertex 2 ends up carrying nothing
        d = build_digraph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 3), (1, 7), (7, 8), (8, 4)])
        flow = menger._SplitFlow(d)
        for carried in ({1, 2, 3}, {1, 3, 5, 6, 7, 8}):
            assert flow.augment(9, {4})
            assert {v for v in d.vertices() if flow.carries[v]} == carried
            _check_residual(d, flow, 9, {4})
        assert not flow.augment(9, {4})
        assert vertex_disjoint_paths(d, 0, 4, 2).paths == ((0, 1, 7, 8, 4), (0, 5, 6, 3, 4))

    def test_arc_flow_successors_ascend_and_follow_the_net_flow(self, rng):
        for _ in range(100):
            n = rng.randrange(2, 10)
            d = rand_digraph(rng, n, rng.uniform(0.2, 0.6))
            rows = [sorted({*d.out_nbrs(v), *d.in_nbrs(v)}) for v in d.vertices()]
            flow = menger._ArcFlow(d, rows)
            s, t = rng.sample(range(n), 2)
            flow.max_flow(s, {t}, rng.randrange(1, 4))
            cap = dict.fromkeys(d.arcs(), 1)
            for (u, w), f in flow.net.items():
                assert flow.net[w, u] == -f
                cap[u, w] = cap.get((u, w), 0) - f
            for u in d.vertices():
                succ = flow.successors(u)
                assert succ == sorted(set(succ))
                assert succ == sorted(w for (x, w), c in cap.items() if x == u and c > 0)


def _residual_reach(flow, s):
    """Reference: every node a residual path from s reaches, by a
    depth-first walk of its own over ``flow.successors``."""
    seen = {s}
    stack = [s]
    while stack:
        for v in flow.successors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


class TestCutFromTheFailedSearch:
    # a minimum cut's source side is what the last, failed augmenting
    # search reaches; no second traversal is needed

    def test_marks_and_cuts_match_a_residual_walk(self):
        rng = random.Random(0xC07)
        cuts = {"paths": 0, "fan": 0, "cycles": 0}
        for _ in range(300):
            d = rand_digraph(rng, rng.randrange(2, 10), rng.uniform(0.2, 0.6))
            s, goals = _flow_ends(rng, d)
            n, k = d.n, rng.randrange(1, 4)
            flow = menger._SplitFlow(d)
            if flow.max_flow(s, goals, k) == k:
                continue
            reach = _residual_reach(flow, s)
            assert {v for v, c in enumerate(flow.came) if c >= 0} == reach
            cut = frozenset(w for w in d.vertices() if w in reach and n + w not in reach)
            if goals == {s - n}:
                kind = "cycles"
            elif min(goals) >= n:
                kind = "fan"
                assert fan_to_set(d, s - n, {g - n for g in goals}, k).cut == cut
            else:
                kind = "paths"
                assert vertex_disjoint_paths(d, s - n, min(goals), k).cut == cut
            cuts[kind] += 1
        assert min(cuts.values()) >= 30, cuts


class TestSelfChecks:
    def test_corrupt_decomposition_raises_under_optimize(self):
        # the self-checks are explicit raises, so ``python -O`` (which
        # strips every assert) must still reject a corrupt answer
        script = """
            from digraphsub import menger
            from digraphsub.core import bioriented_clique, build_digraph
            from digraphsub.errors import InvariantViolation

            assert not __debug__
            honest = menger._decompose_paths
            menger._decompose_paths = lambda *args: [honest(*args)[0]] * 2
            try:
                k4_less_one = build_digraph(4, [a for a in bioriented_clique(4).arcs() if a != (0, 1)])
                menger.vertex_disjoint_paths(k4_less_one, 0, 1, 2)
            except InvariantViolation as exc:
                print("raised:", exc)
        """
        proc = run_script(script, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised: paths share an internal vertex"


def _ask(d, query):
    """One split-network query: ``("paths", u, v, k)``, ``("fan", v,
    targets, k)`` or ``("cycles", w, limit)``."""
    kind, *args = query
    if kind == "paths":
        return vertex_disjoint_paths(d, *args)
    if kind == "fan":
        return fan_to_set(d, *args)
    return menger._disjoint_cycle_flow(d, *args)


def _random_query(rng, d):
    n = d.n
    while True:
        kind = rng.choice(("paths", "fan", "cycles"))
        if kind == "cycles":
            return kind, rng.randrange(n), rng.randrange(1, n + 1)
        v, *others = rng.sample(range(n), rng.randrange(2, min(n, 5) + 1))
        if kind == "fan":
            return kind, v, frozenset(others), rng.randrange(1, 4)
        if not d.has_arc(v, others[0]):
            return kind, v, others[0], rng.randrange(1, 4)


class TestQueriesHoldNothing:
    """A query keeps its flow to itself: no network or host outlives it."""

    def test_interleaved_hosts_match_one_host_at_a_time(self):
        rng = random.Random(0x5107)
        for _ in range(40):
            hosts = [rand_digraph(rng, rng.randrange(4, 12), rng.uniform(0.2, 0.6)) for _ in range(rng.randrange(2, 4))]
            script, h = [], 0
            for _ in range(12):
                if rng.random() < 0.4:
                    h = rng.randrange(len(hosts))
                script.append((h, _random_query(rng, hosts[h])))
            alone = {}
            for h, host in enumerate(hosts):
                alone.update((i, _ask(host, q)) for i, (g, q) in enumerate(script) if g == h)
            assert [_ask(hosts[h], q) for h, q in script] == [alone[i] for i in range(len(script))]

    def test_no_reference_to_a_queried_host_survives(self):
        rng = random.Random(0xB11D)
        first = rand_out_digraph(rng, 40, 5)
        refs = sys.getrefcount(first)
        u, v = next((u, v) for u, v in itertools.permutations(range(40), 2) if not first.has_arc(u, v))
        vertex_disjoint_paths(first, u, v, 3)
        for w in (1, 2, 3):
            fan_to_set(first, w, {w + 10, w + 20}, 2)
        menger._disjoint_cycle_flow(first, 0, 3)
        strong_arc_connectivity(first)
        assert sys.getrefcount(first) == refs


class TestGoldenAnswers:
    def test_answers_match_recorded_hash(self):
        # any change to the augmenting-path order or the flow
        # decomposition that alters a path, a cut or a value changes it
        digest = hashlib.sha256()
        for line in _golden_answers():
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_MENGER.read_text().strip()


def _canonical(res) -> str:
    if res.found:
        return "paths " + repr(res.paths if hasattr(res, "paths") else res.fan)
    return "cut " + repr(sorted(res.cut))


def _golden_hosts():
    rng = random.Random(0x3E17)
    yield _without(bioriented_clique(5), [(0, 1), (2, 3)])
    yield directed_cycle(6)
    yield directed_path(5)
    yield rand_digraph(rng, 8, 0.35)
    yield rand_out_digraph(rng, 12, 3)
    yield rand_out_digraph(rng, 16, 3)


def _golden_answers():
    """Every ordered pair on fixed hosts (paths for k = 1..3, a fan into
    the pair's head and its successor), each host's arc connectivity,
    then criterion-9-style seeded instances."""
    for d in _golden_hosts():
        yield f"host {d.n} {sorted(d.arcs())}"
        yield f"kappa {strong_arc_connectivity(d)}"
        for u, v in itertools.permutations(d.vertices(), 2):
            for k in (1, 2, 3):
                if not d.has_arc(u, v):
                    yield _canonical(vertex_disjoint_paths(d, u, v, k))
                yield _canonical(fan_to_set(d, u, {v, (v + 1) % d.n} - {u}, k))
    rng = random.Random(0x60D)
    for trial in range(2000):
        n = rng.randrange(4, 16)
        d = rand_digraph(rng, n, rng.uniform(0.1, 0.6))
        if trial % 3 == 2:
            v = rng.randrange(n)
            targets = set(rng.sample([x for x in range(n) if x != v], rng.randrange(1, 4)))
            yield _canonical(fan_to_set(d, v, targets, rng.randrange(1, 4)))
        else:
            u, v = rng.sample(range(n), 2)
            if not d.has_arc(u, v):
                yield _canonical(vertex_disjoint_paths(d, u, v, rng.randrange(1, 5)))
        if trial % 10 == 0:
            yield f"kappa {strong_arc_connectivity(d)}"
