import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from digraphsub.core import (
    bioriented_clique,
    build_digraph,
    directed_cycle,
    k3_minus_e,
    min_out_degree,
)
from digraphsub import k3e
from digraphsub.errors import InvariantViolation, VertexOutOfRange
from digraphsub.k3e import find_k3e
from digraphsub.mader import enumerate_digraphs
from digraphsub.oracle import contains_subdivision, validate_certificate
from digraphsub.outcome import NotFound

from .conftest import rand_digraph, rand_out_digraph, run_script

PATTERN = k3_minus_e()
GOLDEN_K3E = Path(__file__).parent / "data" / "k3e_golden.sha256"
GOLDEN_K3E_TRACE = Path(__file__).parent / "data" / "k3e_trace_golden.sha256"


def _check(d, v0=None):
    cert = find_k3e(d, v0)
    report = validate_certificate(d, PATTERN, cert)
    assert report, report.violation
    return cert


class TestDirectCases:
    def test_k3e_itself(self):
        d = PATTERN
        v0 = next(v for v in d.vertices() if d.out_degree(v) == 1)
        cert = _check(d, v0)
        assert set(cert.branch.values()) == {0, 1, 2}

    def test_bivec_k3(self):
        _check(bioriented_clique(3))

    def test_two_triangles_sharing_structure(self):
        # two directed triangles glued on an arc, plus return arcs
        d = build_digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (0, 2), (2, 1)])
        _check(d)

    def test_precondition_violated(self):
        assert find_k3e(directed_cycle(4)) == NotFound("precondition", {"vertex": 1})

    def test_empty_host_and_a_v0_without_out_arc_miss(self):
        assert find_k3e(build_digraph(0, [])) == NotFound("precondition", {"n": 0})
        d = build_digraph(3, [(0, 1), (0, 2), (1, 0), (1, 2)])
        assert find_k3e(d, v0=2) == NotFound("precondition", {"vertex": 2})

    @pytest.mark.parametrize("v0", [-1, 4, 10])
    def test_v0_out_of_range(self, v0):
        with pytest.raises(VertexOutOfRange):
            find_k3e(bioriented_clique(4), v0=v0)

    def test_tightness_on_digon(self):
        # out-degree 1 everywhere: no subdivision exists
        assert contains_subdivision(bioriented_clique(2), PATTERN) is None


class TestReductions:
    def test_terminal_component_descent(self):
        # a directed triangle feeding into a bioriented triangle: the
        # terminal component carries the certificate
        arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 4), (0, 4)]
        arcs += [(3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)]
        d = build_digraph(6, arcs)
        cert = _check(d)
        assert cert.vertices() <= {3, 4, 5}

    def test_partition_lift_splices_bridge(self):
        # a one-vertex separator between the start and a rich side forces
        # the separator reduction; the certificate must lift through it
        arcs = [
            (0, 1),          # v0
            (1, 2), (1, 3),
            (2, 0), (2, 3),
            (3, 0), (3, 2),
            (0, 2),
        ]
        d = build_digraph(4, arcs)
        _check(d, v0=0)

    def test_contract_fires_without_common_in_neighbour(self):
        # v0 = 0 with single out-arc to 1; nothing points at both 0 and 1
        arcs = [
            (0, 1),
            (1, 2), (1, 3),
            (2, 3), (2, 4),
            (3, 2), (3, 4),
            (4, 0), (4, 2),
        ]
        d = build_digraph(5, arcs)
        _check(d, v0=0)

    def test_trace_logs_each_step_as_an_event(self):
        # the same schema as the other finders' logs: one "event" key each
        arcs = [(0, 4), (0, 5), (1, 2), (1, 3), (2, 1), (2, 6), (3, 2), (3, 4),
                (4, 0), (4, 3), (5, 0), (5, 4), (6, 1), (6, 2)]
        trace = []
        cert = find_k3e(build_digraph(7, arcs), trace=trace)
        assert validate_certificate(build_digraph(7, arcs), PATTERN, cert)
        assert [e["event"] for e in trace] == [
            "terminal-component", "contract", "contract", "partition", "fan"]


class TestSelfChecks:
    def test_corrupt_lift_raises_under_optimize(self):
        # the final validation is an explicit raise, so ``python -O``
        # (which strips every assert) must still reject a certificate
        # whose contraction was never lifted
        script = """
            from digraphsub import k3e
            from digraphsub.core import build_digraph
            from digraphsub.errors import InvariantViolation

            assert not __debug__
            k3e.lift_contraction = lambda cert, record: cert
            arcs = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 3), (3, 1), (3, 2)]
            try:
                k3e.find_k3e(build_digraph(4, arcs))
            except InvariantViolation as exc:
                print("raised:", exc)
        """
        proc = run_script(script, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: lifted certificate invalid"), proc.stdout

    def test_step_that_removes_nothing_is_caught(self, monkeypatch):
        # every step must leave fewer live vertices; a contraction that
        # changes nothing repeats forever unless the loop's bound stops it
        monkeypatch.setattr(k3e, "_contract_rows", lambda rows, tail, head, keep, gone_ins, tail_ins: None)
        d = build_digraph(5, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 2), (3, 4), (4, 0), (4, 2)])
        with pytest.raises(InvariantViolation, match="reductions ran past 5 steps"):
            find_k3e(d, 0)


class TestLongReductionChains:
    def test_forced_contractions_run_without_recursion(self):
        # on this host every step contracts v0's out-arc until the cycle
        # half is reached, so the chain of reductions is about L long; a
        # recursion limit far below L must not matter
        script = """
            import sys
            from digraphsub.core import build_digraph, k3_minus_e
            from digraphsub.k3e import find_k3e
            from digraphsub.oracle import validate_certificate

            sys.setrecursionlimit(150)
            L = 200
            B = L + 1
            arcs = [(0, 1), (L, B), (L, B + 1)]
            for i in range(1, L):
                arcs += [(i, i + 1), (i, B + (i + 7) % B)]
            for j in range(B):
                arcs += [(B + j, B + (j + 1) % B), (B + j, j)]
            d = build_digraph(2 * B, arcs)
            trace = []
            cert = find_k3e(d, 0, trace=trace)
            print(bool(validate_certificate(d, k3_minus_e(), cert)), len(trace))
        """
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr
        valid, steps = proc.stdout.split()
        assert valid == "True"
        assert int(steps) > 150


def _digraphs_with_min_out(n, k):
    rows = []
    for u in range(n):
        pool = [v for v in range(n) if v != u]
        rows.append(
            [comb for size in range(k, n) for comb in itertools.combinations(pool, size)]
        )
    for combo in itertools.product(*rows):
        yield build_digraph(n, [(u, v) for u, row in enumerate(combo) for v in row])


class TestExhaustiveSmall:
    def test_all_n4_min_out_2(self):
        count = 0
        for d in _digraphs_with_min_out(4, 2):
            _check(d)
            count += 1
        assert count == 4 ** 4  # per-vertex choices: C(3,2) + C(3,3)

    def test_agreement_with_oracle_n4(self):
        # wherever the finder runs, the oracle must also find the pattern
        rng = random.Random(17)
        seen = 0
        for d in _digraphs_with_min_out(4, 2):
            if rng.random() < 0.9:
                continue
            assert contains_subdivision(d, PATTERN) is not None
            seen += 1
        assert seen > 5


class TestRandomisedSoundness:
    def test_random_hosts(self, rng):
        for _ in range(300):
            n = rng.randrange(3, 12)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < rng.choice((0.3, 0.5, 0.8))
            ]
            d = build_digraph(n, arcs)
            if min_out_degree(d) < 2:
                continue
            _check(d)


class TestOracleAgreementN5:
    def test_sampled_agreement(self):
        # the finder must succeed wherever the degree floor holds, and the
        # oracle must concur on a certificate's existence
        rng = random.Random(55)
        checked = 0
        while checked < 150:
            arcs = [
                (u, v)
                for u in range(5)
                for v in range(5)
                if u != v and rng.random() < 0.55
            ]
            d = build_digraph(5, arcs)
            if min_out_degree(d) < 2:
                continue
            _check(d)
            assert contains_subdivision(d, PATTERN) is not None
            checked += 1


class TestGoldenAnswers:
    def test_certificates_match_recorded_hash(self):
        # any change to a reduction, a lift or the fan order that alters
        # a branch vertex or a path changes it
        digest = hashlib.sha256()
        for line in _golden_answers():
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_K3E.read_text().strip()

    def test_traces_match_recorded_hash(self):
        # the step order and every event payload on the same hosts: a
        # reordered reduction can leave the certificates alone
        digest = hashlib.sha256()
        for line in _golden_traces():
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_K3E_TRACE.read_text().strip()


def _canonical(cert) -> str:
    return f"{sorted(cert.branch.items())} {sorted(cert.paths.items())}"


def _golden_answers():
    for header, d, v0 in _golden_runs():
        if header:
            yield header
        yield _canonical(find_k3e(d, v0))


def _golden_traces():
    for _, d, v0 in _golden_runs():
        trace = []
        find_k3e(d, v0, trace=trace)
        yield json.dumps(trace, sort_keys=True)


def _golden_runs():
    """Every 2-out host with n <= 4 (default v0, then each explicit v0),
    every 7th host of shard 3 of 11 at n = 5, then seeded hosts on 6-30
    vertices whose chosen v0 keeps a single out-arc every other time;
    each seeded host comes with a line that records it."""
    for n in (3, 4):
        for d in enumerate_digraphs(n, 2):
            yield None, d, None
            for v0 in d.vertices():
                yield None, d, v0
    for i, d in enumerate(enumerate_digraphs(5, 2, shard=3, shards=11)):
        if i % 7 == 0:
            yield None, d, None
    rng = random.Random(0x3E3)
    for trial in range(200):
        n = rng.randrange(6, 31)
        if trial % 3 == 0:
            d = rand_digraph(rng, n, rng.uniform(0.2, 0.5))
            if min_out_degree(d) < 2:
                continue
        else:
            d = rand_out_digraph(rng, n, rng.choice((2, 2, 3)))
        v0 = rng.randrange(n)
        if trial % 2:
            keep = rng.choice(d.out_nbrs(v0))
            d = build_digraph(n, [(u, w) for u, w in d.arcs() if u != v0 or w == keep])
        yield f"host {n} {v0} {sorted(d.arcs())}", d, v0
