import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from digraphsub.core import (
    Digraph,
    bfs_levels,
    bioriented_clique,
    bioriented_path,
    bioriented_star,
    build_digraph,
    directed_cycle,
    directed_path,
    k3_minus_e,
    pattern_cab,
    pattern_two_block,
    transitive_tournament,
)
from digraphsub.errors import BadParams, BudgetExceeded, ParseError
from digraphsub.mader import enumerate_digraphs
from digraphsub.oracle import (
    SearchBudget,
    SubdivisionCertificate,
    _arc_masks,
    _closure,
    _orbit_floors,
    _simple_paths_shortest_first,
    as_budget,
    automorphisms,
    contains_subdivision,
    has_even_dicycle,
    validate_certificate,
)

from .conftest import rand_digraph, rand_out_digraph, run_script

GOLDEN_ORACLE = Path(__file__).parent / "data" / "oracle_golden.sha256"


class TestContainsSubdivision:
    def test_c6_contains_c3(self):
        cert = contains_subdivision(directed_cycle(6), directed_cycle(3))
        assert cert is not None
        assert len(cert.branch) == 3
        assert validate_certificate(directed_cycle(6), directed_cycle(3), cert)

    def test_small_clique_has_no_two_block(self):
        # the bioriented clique one vertex smaller than the pattern never
        # hosts it: C(2,2) has 4 vertices, the host only 3
        assert contains_subdivision(bioriented_clique(3), pattern_two_block(2, 2)) is None

    def test_bivec_k2_has_no_k3e(self):
        assert contains_subdivision(bioriented_clique(2), k3_minus_e()) is None

    def test_bivec_k3_contains_k3e(self):
        host = bioriented_clique(3)
        cert = contains_subdivision(host, k3_minus_e())
        assert cert is not None
        assert validate_certificate(host, k3_minus_e(), cert)

    def test_subdivided_host(self):
        # subdivide one arc of K3-e by hand and look for the pattern
        host = build_digraph(4, [(0, 1), (1, 3), (3, 0), (1, 2), (2, 1), (2, 0)])
        cert = contains_subdivision(host, k3_minus_e())
        assert cert is not None
        assert validate_certificate(host, k3_minus_e(), cert)

    def test_budget_exceeded_is_loud(self):
        host = bioriented_clique(9)
        with pytest.raises(BudgetExceeded) as info:
            contains_subdivision(host, pattern_cab(2, 2), budget=5)
        assert info.value.details["consumed"] > 5

    def test_budget_object_reports_consumption(self):
        budget = SearchBudget(max_nodes=10**6)
        contains_subdivision(directed_cycle(6), directed_cycle(3), budget)
        assert 0 < budget.consumed <= budget.max_nodes

    def test_negative_budget_is_a_parameter_error(self):
        # 0 allows no node at all; below that there is no budget to spend
        assert as_budget(0).max_nodes == 0
        with pytest.raises(BadParams, match="budget -3 is negative"):
            as_budget(-3)
        with pytest.raises(BadParams):
            contains_subdivision(directed_cycle(6), directed_cycle(3), budget=-1)

    def test_monotone_under_arc_addition(self, rng):
        pattern = directed_cycle(3)
        for _ in range(30):
            d = rand_digraph(rng, 6, 0.3)
            cert = contains_subdivision(d, pattern)
            if cert is None:
                continue
            extra = [(u, v) for u in range(6) for v in range(6) if u != v and not d.has_arc(u, v)]
            if extra:
                bigger = build_digraph(6, [*d.arcs(), rng.choice(extra)])
                assert contains_subdivision(bigger, pattern) is not None

    def test_prefixes_pruned_by_symmetry_and_reachability(self):
        # directed_cycle(3) in transitive_tournament(6): vertices 1..4 are
        # candidates, and rotations leave only branch tuples with the
        # smallest image at vertex 0: 4 + 6 + 8 placements.  Every
        # depth-2 placement closes a backward arc, so each costs one
        # lookahead BFS and none reaches the path phase.
        budget = _PhaseCounter()
        assert contains_subdivision(transitive_tournament(6), directed_cycle(3), budget) is None
        assert budget.phases == {"branch": 18, "lookahead": 8}

    def test_deterministic(self, rng):
        d = rand_digraph(rng, 7, 0.4)
        a = contains_subdivision(d, directed_cycle(3))
        b = contains_subdivision(d, directed_cycle(3))
        assert a == b


class TestMaskClosure:
    def test_matches_bfs_reference(self):
        # hosts up to 130 vertices, so masks cross the 64- and 128-bit
        # word sizes; blocked sets may hold s, t, both or neither
        rng = random.Random(0xC105)
        for _ in range(120):
            n = rng.choice((2, 3, 9, 63, 64, 65, 127, 128, 129, 130))
            host = rand_digraph(rng, n, rng.choice((1.0, 1.5, 2.5, 4.0)) / n)
            out_mask, in_mask = _arc_masks(host)
            for _ in range(8):
                s, t = rng.sample(range(n), 2)
                density = rng.choice((0.0, 0.1, 0.3, 0.6))
                blocked = {v for v in range(n) if rng.random() < density}
                blocked.difference_update((s, t))
                blocked.update(rng.choice(((), (s,), (t,), (s, t))))
                bits = sum(1 << v for v in blocked)
                got = bool(_closure(out_mask, s, bits) & in_mask[t])
                assert got == _reaches_by_bfs(host, s, t, blocked), (host, s, t, sorted(blocked))

    def test_arc_masks_match_rows(self):
        host = rand_digraph(random.Random(0xA5C), 130, 0.03)
        out_mask, in_mask = _arc_masks(host)
        for u in host.vertices():
            assert [w for w in host.vertices() if out_mask[u] >> w & 1] == list(host.out_nbrs(u))
            assert [w for w in host.vertices() if in_mask[u] >> w & 1] == list(host.in_nbrs(u))


def _reaches_by_bfs(host, s, t, blocked):
    """Reference: t is reachable from s avoiding ``blocked - {s, t}``."""
    dist, _ = bfs_levels(host, s, avoid=blocked - {s, t}, targets=(t,))
    return t in dist


class TestMaskPathSearch:
    def test_matches_level_reference(self):
        # the first 50 paths and the budget spent on them agree with the
        # frozenset search over breadth-first levels, on hosts up to 130
        # vertices and occupied sets that hold s, t, both or neither
        rng = random.Random(0x9A75)
        for _ in range(60):
            n = rng.choice((2, 3, 9, 63, 64, 65, 127, 128, 129, 130))
            host = rand_digraph(rng, n, rng.choice((1.0, 1.5, 2.5, 4.0)) / n)
            reverse = Digraph(n, tuple(map(host.in_nbrs, host.vertices())))
            out_mask, in_mask = _arc_masks(host)
            for _ in range(4):
                s, t = rng.sample(range(n), 2)
                density = rng.choice((0.0, 0.1, 0.3))
                occupied = {v for v in range(n) if rng.random() < density}
                occupied.difference_update((s, t))
                occupied.update(rng.choice(((), (s,), (t,), (s, t))))
                bits = sum(1 << v for v in occupied)
                blocked = frozenset(occupied - {s, t})
                want = _first_paths(lambda b: _paths_by_levels(host, reverse, s, t, blocked, b))
                got = _first_paths(lambda b: _simple_paths_shortest_first(out_mask, in_mask, s, t, bits, b))
                assert got == want, (host, s, t, sorted(occupied))


def _first_paths(search, limit=50):
    """The first ``limit`` paths ``search(budget)`` yields, cut short if
    a 3,000-node budget runs out, and the nodes it charged for them."""
    budget = SearchBudget(3000)
    out = []
    try:
        for path in itertools.islice(search(budget), limit):
            out.append(path)
    except BudgetExceeded:
        out.append("out of budget")
    return out, budget.consumed


def _paths_by_levels(host, reverse, s, t, blocked, budget):
    """Reference: simple s-t dipaths avoiding the frozenset ``blocked``,
    shortest first, pruned by ``bfs_levels`` distances to t on
    ``reverse``, the host with every arc turned around."""
    if s == t:
        return
    rev_dist, _ = bfs_levels(reverse, t, avoid=blocked)
    if s not in rev_dist:
        return
    max_len = host.n - len(blocked) - 1
    for length in range(rev_dist[s], max_len + 1):
        stack = [s]
        on_path = {s}

        def dfs(u, remaining):
            budget.charge(1, phase="path", source=s, target=t)
            if remaining == 0:
                if u == t:
                    yield tuple(stack)
                return
            for v in host.out_nbrs(u):
                if v in blocked or v in on_path or v == t and remaining != 1:
                    continue
                if rev_dist.get(v, host.n + 1) > remaining - 1:
                    continue
                stack.append(v)
                on_path.add(v)
                yield from dfs(v, remaining - 1)
                stack.pop()
                on_path.discard(v)

        yield from dfs(s, length)


class TestValidateCertificate:
    def _good(self):
        host = directed_cycle(6)
        pattern = directed_cycle(3)
        cert = contains_subdivision(host, pattern)
        return host, pattern, cert

    def test_oracle_output_validates(self):
        host, pattern, cert = self._good()
        assert validate_certificate(host, pattern, cert)

    def test_internal_overlap_detected(self):
        host = build_digraph(
            5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (1, 0)]
        )
        pattern = directed_cycle(2)
        bad = SubdivisionCertificate(
            branch={0: 0, 1: 1},
            paths={(0, 1): (0, 2, 1), (1, 0): (1, 0)},
        )
        assert validate_certificate(host, pattern, bad)
        # both paths exist in this host and share their interior vertex 2
        host = build_digraph(3, [(0, 2), (2, 1), (1, 2), (2, 0)])
        worse = SubdivisionCertificate(
            branch={0: 0, 1: 1},
            paths={(0, 1): (0, 2, 1), (1, 0): (1, 2, 0)},
        )
        report = validate_certificate(host, pattern, worse)
        assert not report.ok
        assert report.violation == "internal overlap"

    def test_missing_arc_detected(self):
        host, pattern, cert = self._good()
        tampered = SubdivisionCertificate(
            branch=dict(cert.branch),
            paths={arc: (p[0], p[-1]) for arc, p in cert.paths.items()},
        )
        report = validate_certificate(host, pattern, tampered)
        assert not report.ok

    def test_branch_arity_mismatch(self):
        host, _, cert = self._good()
        report = validate_certificate(host, pattern_two_block(2, 2), cert)
        assert not report.ok
        assert report.violation == "branch arity mismatch"

    def test_never_throws_on_garbage(self):
        host, pattern, _ = self._good()
        garbage = SubdivisionCertificate(branch={0: 99, 1: -3, 2: None}, paths={})
        assert not validate_certificate(host, pattern, garbage).ok

    @pytest.mark.parametrize("branch, paths, violation", [
        ({2: 1}, {}, "branch map not injective"),
        ({2: 7}, {}, "branch image out of range"),
        ({}, {(2, 0): None}, "path set does not match pattern arcs"),
        ({}, {(1, 2): (1,)}, "path for (1, 2) shorter than one arc"),
        ({}, {(1, 2): (1, 4, 6)}, "path for (1, 2) has wrong endpoints"),
        ({}, {(1, 2): (1, 4, 6, 4, 2)}, "path for (1, 2) repeats a vertex"),
        ({}, {(0, 1): (0, 1)}, "arc absent: (0, 1)"),
        ({}, {(0, 1): (0, 2, 1)}, "path for (0, 1) passes through a branch vertex"),
        ({}, {(1, 2): 5}, "malformed certificate: object of type 'int' has no len()"),
    ])
    def test_each_rejection_clause(self, branch, paths, violation):
        # one edit to a valid triangle subdivision in the bioriented K7
        # without the arc (0, 1), each tripping only the named clause; a
        # path set to None is dropped
        host = build_digraph(7, [(u, v) for u in range(7) for v in range(7) if u != v and (u, v) != (0, 1)])
        pattern = directed_cycle(3)
        good = SubdivisionCertificate(
            branch={0: 0, 1: 1, 2: 2},
            paths={(0, 1): (0, 3, 1), (1, 2): (1, 4, 2), (2, 0): (2, 5, 0)},
        )
        assert validate_certificate(host, pattern, good)
        edited = SubdivisionCertificate(
            branch={**good.branch, **branch},
            paths={k: v for k, v in {**good.paths, **paths}.items() if v is not None},
        )
        report = validate_certificate(host, pattern, edited)
        assert not report.ok
        assert report.violation == violation


class TestCertificateJSON:
    def test_round_trip(self):
        host = directed_cycle(6)
        cert = contains_subdivision(host, directed_cycle(3))
        again = SubdivisionCertificate.from_json(cert.to_json())
        assert again == cert

    def test_schema_fields(self):
        cert = SubdivisionCertificate(branch={0: 4}, paths={(0, 0): (4, 5)})
        text = cert.to_json()
        assert '"branch"' in text and '"paths"' in text and '"vertices"' in text

    def test_bad_json(self):
        with pytest.raises(ParseError):
            SubdivisionCertificate.from_json("{}")

    def test_list_shaped_branch(self):
        with pytest.raises(ParseError):
            SubdivisionCertificate.from_json('{"branch": [], "paths": []}')


class TestEvenDicycle:
    def test_digon(self):
        assert has_even_dicycle(bioriented_clique(2))

    def test_c5(self):
        assert not has_even_dicycle(directed_cycle(5))

    def test_bivec_k3(self):
        assert has_even_dicycle(bioriented_clique(3))

    def test_c4(self):
        assert has_even_dicycle(directed_cycle(4))

    def test_acyclic(self):
        assert not has_even_dicycle(directed_path(4))

    def test_odd_cycles_with_chords(self):
        # two odd cycles sharing a vertex: 0-1-2 and 0-3-4, all odd
        d = build_digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert not has_even_dicycle(d)

    def test_long_cycle_runs_without_recursion(self):
        # the walk along a 201-cycle is 200 vertices deep
        script = """
            import sys
            from digraphsub.core import directed_cycle
            from digraphsub.oracle import has_even_dicycle

            sys.setrecursionlimit(150)
            print(has_even_dicycle(directed_cycle(201)))
        """
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestAutomorphisms:
    def test_k3e_is_rigid(self):
        assert automorphisms(k3_minus_e()) == [(0, 1, 2)]

    def test_directed_cycle_rotations(self):
        assert len(automorphisms(directed_cycle(5))) == 5

    def test_cab_22_group_size(self):
        autos = automorphisms(pattern_cab(2, 2))
        assert len(autos) >= 2
        ident = tuple(range(8))
        assert ident in autos

    def test_matches_brute_force_on_package_patterns(self):
        patterns = (
            [directed_cycle(k) for k in range(2, 9)]
            + [directed_path(k) for k in range(1, 8)]
            + [bioriented_clique(k) for k in range(1, 5)]
            + [bioriented_star(k) for k in range(1, 8)]
            + [bioriented_path(k) for k in range(1, 9)]
            + [transitive_tournament(k) for k in range(1, 9)]
            + [k3_minus_e()]
            + [pattern_two_block(k1, k2) for k1 in range(2, 8) for k2 in range(1, k1 + 1) if k1 + k2 <= 8]
            + [pattern_cab(a, b) for a, b in ((1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1))]
        )
        for pattern in patterns:
            assert pattern.n <= 8
            assert automorphisms(pattern) == _automorphisms_by_brute_force(pattern), pattern

    def test_matches_brute_force_on_random_patterns(self):
        rng = random.Random(0xA07)
        for _ in range(200):
            pattern = rand_digraph(rng, rng.randint(1, 7), rng.choice((0.2, 0.35, 0.5, 0.8)))
            assert automorphisms(pattern) == _automorphisms_by_brute_force(pattern), pattern

    def test_orbit_floors_match_leaf_orbit_check(self):
        patterns = [
            directed_cycle(4),
            bioriented_clique(3),
            bioriented_star(3),
            pattern_two_block(2, 2),
            pattern_cab(2, 1),
            pattern_cab(2, 2),
        ]
        for pattern in patterns:
            autos = automorphisms(pattern)
            floors = _orbit_floors(autos, pattern.n)
            values = range(pattern.n + 1 if pattern.n <= 5 else pattern.n)
            for assignment in itertools.permutations(values, pattern.n):
                by_floors = all(assignment[i] < assignment[m] for m in range(pattern.n) for i in floors[m])
                assert by_floors == _orbit_minimal_at_leaf(assignment, autos), (pattern, assignment)


def _orbit_minimal_at_leaf(assignment, autos):
    """Reference: the branch tuple is lexicographically first among its
    images under every automorphism."""
    return all(tuple(assignment[sigma[i]] for i in range(len(assignment))) >= tuple(assignment) for sigma in autos)


@dataclass
class _PhaseCounter(SearchBudget):
    phases: Counter = field(default_factory=Counter)

    def charge(self, amount: int = 1, **context) -> None:
        self.phases[context["phase"]] += amount
        super().charge(amount, **context)


def _automorphisms_by_brute_force(pattern):
    """Reference: every degree-preserving permutation that maps arcs to
    arcs, in lexicographic order."""
    arcs = set(pattern.arcs())
    degs = [(pattern.out_degree(v), pattern.in_degree(v)) for v in pattern.vertices()]
    return [
        perm
        for perm in itertools.permutations(range(pattern.n))
        if all(degs[v] == degs[perm[v]] for v in range(pattern.n))
        and all((perm[u], perm[v]) in arcs for u, v in arcs)
    ]


class TestGoldenCertificates:
    def test_certificates_match_recorded_hash(self):
        # any change to the search order, the pruning or the path choice
        # that alters a certificate (or a yes/no answer) changes the hash
        digest = hashlib.sha256()
        for host, pattern in _golden_searches():
            cert = contains_subdivision(host, pattern)
            if cert is not None:
                assert validate_certificate(host, pattern, cert)
            digest.update((cert.to_json() if cert is not None else "none").encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_ORACLE.read_text().strip()

    def test_charges_match_recorded_totals(self):
        # the certificate hash cannot see a moved or dropped budget
        # charge; these per-phase totals over the same corpus can
        totals = Counter()
        for host, pattern in _golden_searches():
            budget = _PhaseCounter()
            contains_subdivision(host, pattern, budget)
            totals += budget.phases
        assert totals == {"branch": 31501, "lookahead": 37507, "path": 12280}


def _golden_searches():
    """Every 2-out host with n <= 4 against six small patterns, then
    seeded 8-vertex 2-out hosts against C_{2,2}."""
    patterns = [
        pattern_cab(2, 1),
        pattern_two_block(2, 2),
        pattern_two_block(3, 2),
        k3_minus_e(),
        directed_cycle(4),
        bioriented_clique(3),
    ]
    for n in range(1, 5):
        for host in enumerate_digraphs(n, 2):
            for pattern in patterns:
                yield host, pattern
    rng = random.Random(0x6017)
    for _ in range(20):
        yield rand_out_digraph(rng, 8, 2), pattern_cab(2, 2)


class TestAgreementWithBruteForce:
    def test_tiny_hosts_against_path_pair_oracle(self, rng):
        # C(2,2) containment on 4-vertex hosts, cross-checked by a direct
        # exhaustive scan for two disjoint length-2 paths
        pattern = pattern_two_block(2, 2)
        for _ in range(120):
            d = rand_digraph(rng, 4, 0.5)
            expected = _two_block_22_by_hand(d)
            got = contains_subdivision(d, pattern) is not None
            assert got == expected


def _two_block_22_by_hand(d):
    n = d.n
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            mids = [
                m
                for m in range(n)
                if m not in (x, y) and d.has_arc(x, m) and d.has_arc(m, y)
            ]
            if len(mids) >= 2:
                return True
    return False
