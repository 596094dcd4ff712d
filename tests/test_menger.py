import hashlib
import itertools
import random
import sys
import threading
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
    _arc_network,
    _split_topology,
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


class TestResidualRows:
    def test_rows_ascend_and_pair_with_their_reverse(self, rng):
        # ascending rows are what make every tie-break prefer the lower
        # node id; ``rev`` must point at the partner entry
        for _ in range(60):
            d = rand_digraph(rng, rng.randrange(2, 10), 0.35)
            for net in (_split_topology(d).fresh(), _arc_network(d).fresh()):
                for u, row in enumerate(net.nbr):
                    assert row == sorted(set(row))
                    for j, v in enumerate(row):
                        assert net.nbr[v][net.rev[u][j]] == u
                        assert net.cap[u][j] == net.orig[u][j] >= 0
            net = _split_topology(d)
            arcs = {(u, v) for u, row in enumerate(net.nbr) for j, v in enumerate(row) if net.orig[u][j]}
            n = d.n
            expected = {(n + u, v) for u, v in d.arcs()} | {(v, n + v) for v in range(n)}
            assert arcs == expected


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


def _fresh(d, query):
    """The answer with nothing held: the query builds d's network anew."""
    menger._held = None
    return _ask(d, query)


def _rows(net):
    return net.nbr, net.orig, net.rev


class TestHeldNetwork:
    """Each host's split network is built once, shared by every query on
    it and never written after its build."""

    @pytest.fixture(autouse=True)
    def nothing_held(self):
        menger._held = None
        yield
        menger._held = None

    def test_interleaved_hosts_match_fresh_builds(self, monkeypatch):
        rng = random.Random(0x5107)
        builds = []  # one n per build, so no host is kept alive here
        build = menger._split_topology
        monkeypatch.setattr(menger, "_split_topology", lambda d: builds.append(d.n) or build(d))
        for _ in range(40):
            hosts = [rand_digraph(rng, rng.randrange(4, 12), rng.uniform(0.2, 0.6)) for _ in range(rng.randrange(2, 4))]
            script, h = [], 0
            for _ in range(12):
                if rng.random() < 0.4:
                    h = rng.randrange(len(hosts))
                script.append((h, _random_query(rng, hosts[h])))
            expected = [_fresh(hosts[h], q) for h, q in script]
            menger._held = None
            builds.clear()
            assert [_ask(hosts[h], q) for h, q in script] == expected
            switches = sum(a[0] != b[0] for a, b in zip(script, script[1:]))
            assert len(builds) == 1 + switches

    def test_exception_leaves_a_clean_network(self, monkeypatch):
        # random queries on one host, one of them raising once its flow
        # has run, leave the held rows as a fresh build has them
        rng = random.Random(0xC1EA)
        flow = menger._UnitFlow.max_flow

        def raising_flow(net, *args):
            flow(net, *args)
            raise RuntimeError("flow failed")

        for _ in range(20):
            d = rand_digraph(rng, rng.randrange(4, 12), rng.uniform(0.2, 0.6))
            script = [_random_query(rng, d) for _ in range(12)]
            expected = [_fresh(d, q) for q in script]
            menger._held = None
            raising = rng.randrange(len(script))
            answers = []
            for i, query in enumerate(script):
                if i == raising:
                    monkeypatch.setattr(menger._UnitFlow, "max_flow", raising_flow)
                    with pytest.raises(RuntimeError):
                        _ask(d, query)
                    monkeypatch.undo()
                answers.append(_ask(d, query))
            assert answers == expected
            host, net = menger._held
            assert host is d and net.cap is None
            assert _rows(net) == _rows(_split_topology(d))

    def test_one_build_per_host_and_no_stale_reference(self, monkeypatch):
        rng = random.Random(0xB11D)
        first, second = rand_out_digraph(rng, 40, 5), rand_out_digraph(rng, 40, 5)
        builds = []  # one n per build, so no host is kept alive here
        build = menger._split_topology
        monkeypatch.setattr(menger, "_split_topology", lambda d: builds.append(d.n) or build(d))
        refs = sys.getrefcount(first)
        u, v = next((u, v) for u, v in itertools.permutations(range(40), 2) if not first.has_arc(u, v))
        vertex_disjoint_paths(first, u, v, 3)
        for w in (1, 2, 3):
            fan_to_set(first, w, {w + 10, w + 20}, 2)
        assert builds == [40]
        fan_to_set(second, 0, {1, 2}, 2)
        assert builds == [40, 40]
        assert menger._held[0] is second
        assert sys.getrefcount(first) == refs

    def test_threads_sharing_the_network_match_fresh_builds(self, monkeypatch):
        # queries in several threads share the held rows, and each flow
        # owns its residual capacities.  The threads start each query
        # together and every flow waits until each thread has its flow
        # made, so the queries overlap; their ``cap`` lists must differ.
        rng = random.Random(0x7EAD)
        hosts = [rand_digraph(rng, 9, 0.4) for _ in range(2)]
        scripts = [[(h, _random_query(rng, hosts[h])) for h in rng.choices(range(2), k=60)] for _ in range(4)]
        expected = [[_fresh(hosts[h], q) for h, q in script] for script in scripts]
        menger._held = None
        open_caps, distinct = [], []

        def all_open():
            distinct.append(len(set(map(id, open_caps))) == len(scripts))
            open_caps.clear()

        in_flow = threading.Barrier(len(scripts), action=all_open, timeout=30)
        next_query = threading.Barrier(len(scripts), timeout=30)
        flow = menger._UnitFlow.max_flow

        def overlapping_flow(net, *args):
            open_caps.append(net.cap)
            in_flow.wait()
            return flow(net, *args)

        monkeypatch.setattr(menger._UnitFlow, "max_flow", overlapping_flow)
        answers = [None] * len(scripts)

        def work(i):
            answers[i] = []
            try:
                for h, q in scripts[i]:
                    next_query.wait()
                    answers[i].append(_ask(hosts[h], q))
            except BaseException:
                in_flow.abort()  # release the others at once
                next_query.abort()
                raise

        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(scripts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert distinct == [True] * 60
        assert answers == expected
        host, net = menger._held
        assert _rows(net) == _rows(_split_topology(host))


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
