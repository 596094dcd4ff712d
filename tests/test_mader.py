import json
import random

import pytest

from digraphsub import mader
from digraphsub.core import (
    bioriented_clique,
    build_digraph,
    k3_minus_e,
    min_out_degree,
    pattern_cab,
    pattern_two_block,
)
from digraphsub.errors import BadParams, BudgetExceeded, TooLarge
from digraphsub.k3e import find_k3e
from digraphsub.mader import (
    count_digraphs,
    enumerate_digraphs,
    lower_witness,
    sample_digraph,
    verify_upper,
)
from digraphsub.oracle import contains_subdivision
from digraphsub.two_block import find_two_block


class TestEnumeration:
    def test_n2_min_out_1(self):
        graphs = list(enumerate_digraphs(2, 1))
        assert len(graphs) == 1
        assert graphs[0] == build_digraph(2, [(0, 1), (1, 0)])

    def test_n3_all(self):
        assert sum(1 for _ in enumerate_digraphs(3, 0)) == 64

    def test_n3_min_out_2(self):
        graphs = list(enumerate_digraphs(3, 2))
        assert graphs == [bioriented_clique(3)]

    def test_counts_match_closed_form(self):
        for n in (2, 3, 4):
            for k in range(n):
                assert sum(1 for _ in enumerate_digraphs(n, k)) == count_digraphs(n, k)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            next(enumerate_digraphs(6, 0))

    @pytest.mark.parametrize("shard, shards", [(0, 0), (-1, 2), (2, 2), (5, 2)])
    def test_shard_outside_its_range_is_bad_params(self, shard, shards):
        with pytest.raises(BadParams):
            list(enumerate_digraphs(3, 1, shard, shards))

    def test_shards_partition(self):
        whole = [tuple(sorted(d.arcs())) for d in enumerate_digraphs(3, 1)]
        pieces = []
        for shard in range(3):
            pieces.extend(
                tuple(sorted(d.arcs())) for d in enumerate_digraphs(3, 1, shard, 3)
            )
        assert sorted(whole) == sorted(pieces)

    def test_each_exactly_once(self):
        seen = [tuple(sorted(d.arcs())) for d in enumerate_digraphs(3, 1)]
        assert len(seen) == len(set(seen))

    def test_degree_floor_respected(self):
        assert all(min_out_degree(d) >= 1 for d in enumerate_digraphs(4, 1))

    def test_hosts_equal_their_built_arc_sets(self):
        # a host is built straight from its option rows, so each row
        # must already ascend strictly and hold no loop
        for n in range(1, 5):
            for k in range(4):
                assert all(d == build_digraph(n, d.arcs()) for d in enumerate_digraphs(n, k))
        shard = list(enumerate_digraphs(5, 2, shard=3, shards=11))
        assert len(shard) > 10_000
        assert all(d == build_digraph(5, d.arcs()) for d in shard)


class TestSampling:
    def test_repair_reaches_floor(self):
        rng = random.Random(3)
        for _ in range(50):
            d = sample_digraph(rng, 12, 4, p=0.1)
            assert min_out_degree(d) >= 4

    def test_negative_vertex_count_is_bad_params(self):
        with pytest.raises(BadParams):
            sample_digraph(random.Random(0), -1, 0)

    def test_seeded_reproducibility(self):
        a = sample_digraph(random.Random(9), 10, 2)
        b = sample_digraph(random.Random(9), 10, 2)
        assert a == b

    def test_hosts_equal_their_built_arc_sets(self):
        rng = random.Random(0x5A3)
        for _ in range(200):
            n = rng.randrange(1, 14)
            d = sample_digraph(rng, n, rng.randrange(n), p=rng.uniform(0.05, 0.9))
            assert d == build_digraph(n, d.arcs())


class TestVerifyUpper:
    def test_k3e_counterexample_at_degree_1(self):
        report = verify_upper(k3_minus_e(), 1, 3, pattern_name="k3e")
        assert report.outcome == "counterexample"
        assert report.counterexample == build_digraph(2, [(0, 1), (1, 0)])

    def test_k3e_degree_2_small(self):
        report = verify_upper(
            k3_minus_e(), 2, 4, pattern_name="k3e", finder=lambda d: find_k3e(d)
        )
        assert report.outcome == "all-contain"
        assert report.checked == 1 + 256  # n=3 clique + all n=4 hosts

    def test_two_block_22_degree_3_small(self):
        report = verify_upper(pattern_two_block(2, 2), 3, 4, pattern_name="twoblock:2,2")
        assert report.outcome == "all-contain"

    def test_monotone_in_degree(self):
        weaker = verify_upper(pattern_two_block(2, 2), 3, 4)
        stronger = verify_upper(pattern_two_block(2, 2), 3, 4)
        assert weaker.outcome == stronger.outcome == "all-contain"

    def test_finder_out_of_budget_is_rechecked_by_the_oracle(self):
        # a finder's BudgetExceeded is a miss: the oracle decides the host
        report = verify_upper(pattern_two_block(3, 2), 4, 5, finder=lambda d: find_two_block(d, 3, 2, 1))
        assert report.outcome == "all-contain" and report.checked == 1

        def exhausted(d):
            raise BudgetExceeded()

        report = verify_upper(k3_minus_e(), 1, 3, finder=exhausted)
        assert report.outcome == "counterexample"
        assert report.counterexample == build_digraph(2, [(0, 1), (1, 0)])

    def test_sampled_sweep_is_seeded(self):
        report = verify_upper(k3_minus_e(), 2, 7, mode="sampled", pattern_name="k3e",
                              samples=30, seed=5)
        assert report.outcome == "all-contain" and report.checked == 30
        assert report.seed == 5 and json.loads(report.to_json())["seed"] == 5
        assert report == verify_upper(k3_minus_e(), 2, 7, mode="sampled", pattern_name="k3e",
                                      samples=30, seed=5)

    @pytest.mark.parametrize("k,n_max", [(2, 2), (1, 2), (4, 4), (2, -1)])
    def test_sampled_sweep_with_no_host_size_raises_before_sampling(self, k, n_max, monkeypatch):
        # the smallest sampled host has max(k + 1, 3) vertices
        monkeypatch.setattr(mader, "sample_digraph", None)
        with pytest.raises(BadParams, match=f"needs n_max >= {max(k + 1, 3)}"):
            verify_upper(k3_minus_e(), k, n_max, mode="sampled", samples=5)

    @pytest.mark.parametrize("k,n_max", [(2, 1), (4, 4), (0, 1), (3, -2)])
    def test_exhaustive_sweep_with_no_host_size_raises_before_enumerating(self, k, n_max, monkeypatch):
        # the smallest enumerated host has max(k + 1, 2) vertices
        monkeypatch.setattr(mader, "enumerate_digraphs", None)
        with pytest.raises(BadParams, match=f"needs n_max >= {max(k + 1, 2)}"):
            verify_upper(k3_minus_e(), k, n_max)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_negative_degree_raises_before_any_host(self, mode, monkeypatch):
        monkeypatch.setattr(mader, "enumerate_digraphs", None)
        monkeypatch.setattr(mader, "sample_digraph", None)
        with pytest.raises(BadParams, match="tested degree -1 is negative"):
            verify_upper(k3_minus_e(), -1, 3, mode=mode)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_sweep_without_samples_raises_before_sampling(self, samples, monkeypatch):
        monkeypatch.setattr(mader, "sample_digraph", None)
        with pytest.raises(BadParams, match="needs samples >= 1"):
            verify_upper(k3_minus_e(), 2, 7, mode="sampled", samples=samples)

    def test_unknown_mode_raises_before_any_host(self, monkeypatch):
        monkeypatch.setattr(mader, "enumerate_digraphs", None)
        monkeypatch.setattr(mader, "sample_digraph", None)
        with pytest.raises(BadParams, match="unknown mode 'exhaustve'"):
            verify_upper(k3_minus_e(), 2, 5, mode="exhaustve", samples=3)

    def test_k3e_finder_misses_below_its_precondition(self):
        # find_k3e returns a miss on the digon, and the oracle confirms it
        report = verify_upper(k3_minus_e(), 1, 3, finder=find_k3e)
        assert report.outcome == "counterexample"
        assert report.counterexample == build_digraph(2, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_negative_budget_raises_before_any_host(self, mode, monkeypatch):
        monkeypatch.setattr(mader, "enumerate_digraphs", None)
        monkeypatch.setattr(mader, "sample_digraph", None)
        with pytest.raises(BadParams, match="budget -1 is negative"):
            verify_upper(k3_minus_e(), 2, 5, mode=mode, budget=-1)

    def test_report_serialisation(self):
        report = verify_upper(k3_minus_e(), 1, 3, pattern_name="k3e")
        assert '"counterexample"' in report.to_json()
        assert report.to_csv_row().startswith("k3e,1,3,")


class TestLowerWitness:
    def test_two_block_32(self):
        witness, confirmed = lower_witness(pattern_two_block(3, 2))
        assert witness == bioriented_clique(4)
        assert confirmed

    def test_k3e(self):
        witness, confirmed = lower_witness(k3_minus_e())
        assert witness == bioriented_clique(2)
        assert confirmed

    def test_cab_22(self):
        witness, confirmed = lower_witness(pattern_cab(2, 2))
        assert witness == bioriented_clique(7)
        assert confirmed
        assert contains_subdivision(witness, pattern_cab(2, 2)) is None
