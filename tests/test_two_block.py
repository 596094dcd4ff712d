import itertools
import random

import pytest

from digraphsub.core import (
    bioriented_clique,
    build_digraph,
    directed_path,
    min_out_degree,
    pattern_two_block,
)
from digraphsub.errors import BadParams, BudgetExceeded, StuckGreedy
from digraphsub.oracle import contains_subdivision, validate_certificate
from digraphsub.outcome import NotFound
from digraphsub.two_block import find_two_block, fork

from .conftest import rand_out_digraph, run_script


class TestFork:
    def test_bivec_k5(self):
        p1, p2 = fork(bioriented_clique(5), 0, 2, 2)
        assert p1[0] == p2[0] == 0
        assert len(p1) - 1 == 2 and len(p2) - 1 == 2
        assert set(p1) & set(p2) == {0}

    def test_directed_path_stuck(self):
        with pytest.raises(StuckGreedy):
            fork(directed_path(3), 0, 1, 1)

    def test_random_6_out(self, rng):
        for _ in range(30):
            d = rand_out_digraph(rng, 20, 6)
            p1, p2 = fork(d, 0, 3, 3)
            assert set(p1) & set(p2) == {0}
            assert len(p1) - 1 == 3 and len(p2) - 1 == 3

    def test_forbidden_respected(self, rng):
        d = bioriented_clique(7)
        p1, p2 = fork(d, 0, 2, 2, forbidden={1, 2})
        assert not ({1, 2} & (set(p1) | set(p2)))


class TestFindTwoBlockThreshold:
    def test_bivec_k5_finds_32(self):
        d = bioriented_clique(5)  # min out-degree 4 = 3 + 3*2 - 5
        cert = find_two_block(d, 3, 2)
        assert validate_certificate(d, pattern_two_block(3, 2), cert)

    def test_bivec_k4_finds_22(self):
        d = bioriented_clique(4)  # min out-degree 3 = 2 + 3*2 - 5
        cert = find_two_block(d, 2, 2)
        assert validate_certificate(d, pattern_two_block(2, 2), cert)

    def test_trivial_lower_bound_host(self):
        # host one vertex smaller than the pattern: honest miss, and the
        # oracle concurs
        k = 3
        d = bioriented_clique(k + 1)
        out = find_two_block(d, k, 2)
        assert isinstance(out, NotFound)
        assert contains_subdivision(d, pattern_two_block(k, 2)) is None

    def test_zero_budget_means_zero(self):
        with pytest.raises(BudgetExceeded) as exc:
            find_two_block(bioriented_clique(6), 2, 2, budget=0)
        assert exc.value.details["consumed"] == 1

    def test_bad_params(self):
        with pytest.raises(BadParams):
            find_two_block(bioriented_clique(3), 1, 2)
        with pytest.raises(BadParams):
            find_two_block(bioriented_clique(3), 2, 0)
        with pytest.raises(BadParams):
            find_two_block(bioriented_clique(3), 1, 1)


class TestShortBlock:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random_hosts_at_threshold(self, k):
        rng = random.Random(k)
        for _ in range(50):
            d = rand_out_digraph(rng, rng.randrange(k + 2, 25), k)
            cert = find_two_block(d, k, 1)
            assert validate_certificate(d, pattern_two_block(k, 1), cert)

    def test_notfound_carries_details(self):
        out = find_two_block(directed_path(4), 3, 1)
        assert isinstance(out, NotFound)
        assert out.reason == "no-wide-fan"


def _all_digraphs_with_min_out(n, k):
    others = [list(itertools.combinations([v for v in range(n) if v != u], size))
              for u in range(n) for size in [0]]
    del others
    rows = []
    for u in range(n):
        pool = [v for v in range(n) if v != u]
        rows.append([
            comb
            for size in range(k, n)
            for comb in itertools.combinations(pool, size)
        ])
    for combo in itertools.product(*rows):
        arcs = [(u, v) for u, row in enumerate(combo) for v in row]
        yield build_digraph(n, arcs)


class TestExhaustiveAgreement:
    def test_n4_exhaustive_22(self):
        # at the proven threshold, every host on 4 vertices succeeds
        count = 0
        for d in _all_digraphs_with_min_out(4, 3):
            cert = find_two_block(d, 2, 2)
            assert validate_certificate(d, pattern_two_block(2, 2), cert)
            count += 1
        assert count == 1  # only the bioriented clique qualifies

    def test_small_random_below_threshold_soundness(self, rng):
        pattern = pattern_two_block(2, 2)
        for _ in range(300):
            n = rng.randrange(4, 8)
            arcs = [
                (u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.4
            ]
            d = build_digraph(n, arcs)
            out = find_two_block(d, 2, 2)
            if isinstance(out, NotFound):
                continue
            assert validate_certificate(d, pattern, out)

    def test_agreement_with_oracle_when_dense(self, rng):
        # completeness spot-check: wherever the degree threshold holds,
        # the finder must agree with the oracle's positive verdict
        for _ in range(60):
            n = rng.randrange(4, 7)
            d = rand_out_digraph(rng, n, 3)
            if min_out_degree(d) < 3:
                continue
            cert = find_two_block(d, 2, 2)
            assert not isinstance(cert, NotFound)
            assert validate_certificate(d, pattern_two_block(2, 2), cert)


class TestProgress:
    def test_sparse_hosts_never_crash(self, rng):
        for _ in range(200):
            n = rng.randrange(3, 15)
            k = rng.randrange(1, 4)
            d = rand_out_digraph(rng, n, min(k, n - 1))
            out = find_two_block(d, 3, 2)
            if not isinstance(out, NotFound):
                assert validate_certificate(d, pattern_two_block(3, 2), out)


class TestThresholdCompleteness33:
    def test_random_hosts_33(self, rng):
        # degree floor 7 = 3 + 3*3 - 5
        for _ in range(150):
            n = rng.randrange(9, 31)
            d = rand_out_digraph(rng, n, 7)
            cert = find_two_block(d, 3, 3)
            assert not isinstance(cert, NotFound)
            assert validate_certificate(d, pattern_two_block(3, 3), cert)


class TestSelfChecks:
    def test_corrupt_lay_path_raises_under_optimize(self):
        # both checks on a laid certificate are explicit raises, so
        # ``python -O`` (which strips every assert) must still reject a
        # lay_path that fails, and one that claims success but lays nothing
        script = """
            from digraphsub import two_block
            from digraphsub.core import bioriented_clique
            from digraphsub.errors import InvariantViolation

            assert not __debug__
            for answer in (False, True):
                two_block.lay_path = lambda pat, host, branch, paths: answer
                try:
                    two_block.find_two_block(bioriented_clique(5), 3, 2)
                except InvariantViolation as exc:
                    print("raised:", exc)
        """
        proc = run_script(script, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: routes shorter than the pattern blocks",
            "raised: two-block certificate invalid: branch arity mismatch",
        ]
