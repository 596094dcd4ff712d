"""The four benchmark workloads: seeded inputs, ops and answer checks.

A workload is built from its seed in ``setup`` (host generation is
set-up cost) and then yields *rounds*: fixed mixes of ops that the
runner executes back to back until its time is up.  Every round of a
workload has the same mix of op kinds, so the median and tail of the
per-op times sit inside one kind of op and do not jump with the
number of rounds a run completes.

An op is one call of a public solver on one input plus the check of
its answer, and returns an :class:`Outcome`.  The library is reached
only through module attributes (``k3e.find_k3e``), so a traced run
sees every call.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
from dataclasses import dataclass

import numpy as np

from digraphsub import cab, core, k3e, mader, menger, oracle, synthetic, two_block
from digraphsub.errors import BudgetExceeded
from digraphsub.outcome import NotFound

OK, UNDECIDED, FAILED = "ok", "undecided", "failed"


@dataclass
class Outcome:
    """Classified result of one op; ``answer`` feeds the digest."""

    status: str
    answer: object
    note: str = ""


def canonical(answer) -> str:
    """Text fed to the certificate digest for one op's answer."""
    if isinstance(answer, oracle.SubdivisionCertificate):
        return answer.to_json()
    if isinstance(answer, NotFound):
        return "notfound:" + answer.reason
    return json.dumps(answer, sort_keys=True)


def certified(host, pattern, found, required: bool) -> Outcome:
    """Validate a certificate; a missing one fails only when required."""
    if found is None or isinstance(found, NotFound):
        if required:
            return Outcome(FAILED, found, "required certificate missing")
        return Outcome(OK, found if found is not None else "absent")
    report = oracle.validate_certificate(host, pattern, found)
    if not report:
        return Outcome(FAILED, found, f"invalid certificate: {report.violation}")
    return Outcome(OK, found)


# ---------------------------------------------------------------------------
# host generators (the benchmark's own; nothing is imported from tests)
# ---------------------------------------------------------------------------

def out_degree_host(rng: random.Random, n: int, k: int, extra: float) -> core.Digraph:
    """Each vertex gets k random out-neighbours, then every other arc
    independently with probability ``extra``."""
    arcs = []
    for u in range(n):
        others = [v for v in range(n) if v != u]
        arcs += [(u, v) for v in rng.sample(others, k)]
        arcs += [(u, v) for v in others if rng.random() < extra]
    return core.build_digraph(n, arcs)


def random_host(rng: random.Random, n: int, p: float) -> core.Digraph:
    """Each ordered pair becomes an arc with probability p."""
    return core.build_digraph(
        n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    )


def dense_out_host(seed: int, n: int = 4000, k: int = 200) -> core.Digraph:
    """n vertices, each with exactly k distinct random out-neighbours."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n):
        row = rng.choice(n - 1, size=k, replace=False)
        row = row + (row >= u)
        rows.append(tuple(sorted(row.tolist())))
    return core.Digraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# k3e-sweep
# ---------------------------------------------------------------------------

K3E_SHARDS = 11


class K3eSweep:
    """Criterion 1: ``find_k3e`` and validation on the exhaustive
    enumeration of min-out-degree-2 digraphs.

    All hosts on at most four vertices come first, then the n = 5
    enumeration with its 11 shards interleaved host by host, in a seeded
    shard order.  A single shard would make the per-host cost depend on
    which shard the seed picked (shards differ by up to a third); the
    interleaved stream gives every run the same mix.  Enumeration is
    part of each op, because sweep users pay for it on every host.
    """

    name = "k3e-sweep"
    digest_rounds = 3000

    def setup(self, seed: int, probe) -> None:
        self.probe = probe
        self.pattern = core.k3_minus_e()
        self.shard_order = random.Random(seed).sample(range(K3E_SHARDS), K3E_SHARDS)
        self.hosts = self._stream()
        self.warm_hosts = list(mader.enumerate_digraphs(3, 2))

    def _stream(self):
        while True:
            for n in (3, 4):
                yield from mader.enumerate_digraphs(n, 2)
            shards = [
                mader.enumerate_digraphs(5, 2, shard=s, shards=K3E_SHARDS)
                for s in self.shard_order
            ]
            for group in itertools.zip_longest(*shards):
                yield from (d for d in group if d is not None)

    def warmup(self) -> None:
        for d in self.warm_hosts:
            self._solve(d)

    def round(self, r: int):
        return [self._op]

    def _op(self) -> Outcome:
        return self._solve(next(self.hosts))

    def _solve(self, d) -> Outcome:
        trace = self.probe.sink()
        cert = k3e.find_k3e(d, trace=trace)
        self.probe.count_k3e_steps(trace)
        return certified(d, self.pattern, cert, required=True)

    def cli_case(self):
        return self.warm_hosts[0], "k3e"


# ---------------------------------------------------------------------------
# oracle-stress
# ---------------------------------------------------------------------------

ORACLE_BUDGET = 10**7
ORACLE_POOL = 256  # rounds of inputs; a run that gets through them starts over


class OracleStress:
    """The exhaustive oracle on mixed yes/no hosts.

    Each round is one heavy op, C_{2,2} on an 8-vertex host of
    out-degree 2 with a few extra arcs (about a third contain it; about
    120 ms and 30k search nodes each), and four cheap ops on sparse
    9-12-vertex hosts: C(3,2), C(2,2) and K3-e twice.  Yes and no hosts
    are mixed so that a search-order change cannot speed one and slow
    the other unseen.  Heavy hosts are kept at 8 vertices so that a run
    holds well over 100 of them; at 10 vertices a host takes up to 2 s
    and a run's mean would follow the few hosts it drew.
    """

    name = "oracle-stress"
    digest_rounds = 40

    def setup(self, seed: int, probe) -> None:
        self.probe = probe
        rng = random.Random(seed)
        heavy = core.pattern_cab(2, 2)
        cheap = [
            (core.pattern_two_block(3, 2), 0.06),
            (core.pattern_two_block(2, 2), 0.05),
            (core.k3_minus_e(), 0.08),
            (core.k3_minus_e(), 0.12),
        ]
        self.pool = []
        for r in range(ORACLE_POOL):
            items = [(out_degree_host(rng, 8, 2, 0.05), heavy)]
            for i, (pattern, p) in enumerate(cheap):
                # host sizes cycle through 9..12 so every seed gets the same size mix
                items.append((out_degree_host(rng, 9 + (r + i) % 4, 1, p), pattern))
            self.pool.append(items)

    def warmup(self) -> None:
        for host, pattern in self.pool[0][1:]:
            self._solve(host, pattern)
        self.probe.take_nodes()

    def round(self, r: int):
        return [functools.partial(self._solve, host, pattern) for host, pattern in self.pool[r % ORACLE_POOL]]

    def _solve(self, host, pattern) -> Outcome:
        found = oracle.contains_subdivision(host, pattern, self.probe.budget("oracle", ORACLE_BUDGET))
        return certified(host, pattern, found, required=False)

    def cli_case(self):
        return self.pool[0][0][0], "k3e"


# ---------------------------------------------------------------------------
# cab-chain
# ---------------------------------------------------------------------------

STAGED = (
    "ring_of_cycle_gadgets",
    "ring_of_dominating_gadgets",
    "pendant_contraction_host",
    "condition2_closure_host",
    "cycle_walk_closure_host",
)
STAGED_M = (240, 400)  # every staged host certifies from m = 192 on
WIRED = tuple(itertools.product((2, 3), (1, 2, 3)))
CAB_RANDOM_PER_ROUND = 4
CAB_POOL = 56  # rounds of inputs; a run that gets through them starts over
CAB_BUDGET = 10**6
CAB_RANDOM_BUDGET = 3000
CAB_TINY_BUDGET = 40  # every 25th random op, so the budget path stays exercised


class CabChain:
    """``find_cab`` on the staged chain hosts, wired cycle hosts and a
    criterion-7-style random share.

    The staged hosts in ``synthetic`` are the only inputs that reach
    gadget-chain growth, which is quadratic in the chain length m, so
    each round holds all five at seed-drawn m in [240, 400].  Wired hosts
    (a in {2, 3}, b in {1, 2, 3}) must certify too.  The random share
    mostly ends in early ``NotFound`` and keeps the cheap rejection path
    in view.  A round is 15 ops, with the five staged hosts the slowest
    and the six wired hosts in the middle, so the p90 op time is a
    staged host's and the p50 a wired host's.
    """

    name = "cab-chain"
    digest_rounds = 4

    def setup(self, seed: int, probe) -> None:
        self.probe = probe
        rng = random.Random(seed)
        self.pool = []
        random_ops = 0
        for _ in range(CAB_POOL):
            items = []
            for kind in STAGED:
                host = getattr(synthetic, kind)(rng.randint(*STAGED_M))
                items.append((host, 2, 1, CAB_BUDGET, True))
            for a, b in WIRED:
                a1 = rng.randrange(1, a + 2)
                host, _, _ = synthetic.wired_cycle_host(rng, a1, a + 2 - a1, b)
                items.append((host, a, b, CAB_BUDGET, True))
            for _ in range(CAB_RANDOM_PER_ROUND):
                random_ops += 1
                roll = rng.random()
                if roll < 0.7:
                    n = rng.randrange(6, 40)
                elif roll < 0.95:
                    n = rng.randrange(40, 120)
                else:
                    n = rng.randrange(120, 201)
                host = random_host(rng, n, rng.uniform(0.02, 0.4))
                a, b = rng.choice((2, 2, 2, 3)), rng.choice((1, 1, 2))
                budget = CAB_TINY_BUDGET if random_ops % 25 == 0 else CAB_RANDOM_BUDGET
                items.append((host, a, b, budget, False))
            self.pool.append(items)
        self.patterns = {(a, b): core.pattern_cab(a, b) for a in (2, 3) for b in (1, 2, 3)}

    def warmup(self) -> None:
        for item in self.pool[0][len(STAGED):len(STAGED) + len(WIRED)]:
            self._solve(*item)
        self.probe.take_nodes()

    def round(self, r: int):
        return [functools.partial(self._solve, *item) for item in self.pool[r % CAB_POOL]]

    def _solve(self, host, a, b, budget, required) -> Outcome:
        log = self.probe.sink()
        try:
            found = cab.find_cab(host, a, b, budget=self.probe.budget("cab", budget), log=log)
        except BudgetExceeded:
            self.probe.events["cab.outcome.budget-exceeded"] += 1
            raise
        self.probe.count_closures(log)
        reason = "certified" if not isinstance(found, NotFound) else found.reason
        self.probe.events["cab.outcome." + reason] += 1
        return certified(host, self.patterns[a, b], found, required)

    def cli_case(self):
        host, a, b, _, _ = self.pool[0][0]
        return host, f"cab:{a},{b}"


# ---------------------------------------------------------------------------
# large-hosts
# ---------------------------------------------------------------------------

GIRTH_K, GIRTH_G = 10, 8
FLOW_K = 10
FAN_TARGETS = 20
GIRTH_PROBES = 20
# every pair sits at or below the reduced hosts' min out-degree of 10:
# k1 for k2 = 1, and k1 + 3*k2 - 5 otherwise
TWO_BLOCK_PAIRS = (
    (2, 1), (4, 1), (7, 1), (10, 1),
    (2, 2), (4, 2), (6, 2), (9, 2),
    (3, 3), (4, 3), (5, 3), (6, 3),
)


class LargeHosts:
    """Criterion 6 and large flow networks: few huge builds.

    Set-up builds one 4000-vertex 200-out host (800k arcs).  Each round
    reduces it with ``reduce_girth(k=10, g=8)`` under a fresh seed
    (about 4000 vertices and 100k arcs survive), spot-checks the girth
    with ``bfs_levels``, asks one ``vertex_disjoint_paths`` and three
    ``fan_to_set`` queries (flow networks of about 200k nodes) and
    twelve ``find_two_block`` queries at their thresholds on the reduced
    host.  ``core`` and ``menger`` work here on a few huge graphs,
    against thousands of tiny ones in k3e-sweep.

    The flow queries are the slowest ops, and the p90 op time falls a
    little above the middle of them.  Fan queries into 20 targets cost
    much the same on every host, while a u-v query costs about 0.75 to
    1.05 times as much, so a round holds three fan queries to one u-v
    query: the p90 then sits among fan queries, not on the edge between
    the two kinds.
    """

    name = "large-hosts"
    digest_rounds = 1

    def setup(self, seed: int, probe) -> None:
        self.probe = probe
        self.seed = seed
        self.host = dense_out_host(seed)
        self.patterns = {pair: core.pattern_two_block(*pair) for pair in TWO_BLOCK_PAIRS}
        self.reduced = self.first_reduced = None
        self.warm_host = dense_out_host(seed, n=300, k=40)

    def warmup(self) -> None:
        sub, _ = cab.reduce_girth(self.warm_host, 3, 3, seed=0)
        two_block.find_two_block(sub, 2, 2, budget=self.probe.budget("two_block", 10**7))
        self.probe.take_nodes()

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        ops = [functools.partial(self._reduce, self.seed * 1000 + r)]
        ops.append(functools.partial(self._paths, rng.getrandbits(32)))
        ops += [functools.partial(self._fan, rng.getrandbits(32)) for _ in range(3)]
        ops += [functools.partial(self._two_block, pair) for pair in TWO_BLOCK_PAIRS]
        return ops

    def _reduce(self, seed: int) -> Outcome:
        sub, kept = cab.reduce_girth(self.host, GIRTH_K, GIRTH_G, seed=seed)
        self.reduced = sub
        self.first_reduced = self.first_reduced or sub
        if core.min_out_degree(sub) < GIRTH_K:
            return Outcome(FAILED, None, "reduced host below out-degree k")
        for v in random.Random(seed).sample(range(sub.n), GIRTH_PROBES):
            if not all(self.host.has_arc(kept[v], kept[w]) for w in sub.out_nbrs(v)):
                return Outcome(FAILED, None, "reduced host is not a subgraph")
            dist, _ = core.bfs_levels(sub, v, max_depth=GIRTH_G - 1)
            if any(dist.get(w, GIRTH_G) + 1 < GIRTH_G for w in sub.in_nbrs(v)):
                return Outcome(FAILED, None, f"cycle shorter than {GIRTH_G} through {v}")
        digest = hashlib.sha256(np.asarray(kept, dtype=np.int64).tobytes()).hexdigest()
        return Outcome(OK, {"n": sub.n, "m": sub.m, "kept": digest})

    def _paths(self, seed: int) -> Outcome:
        d = self.reduced
        rng = random.Random(seed)
        u, v = rng.sample(range(d.n), 2)
        while d.has_arc(u, v):
            u, v = rng.sample(range(d.n), 2)
        res = menger.vertex_disjoint_paths(d, u, v, FLOW_K)
        if res.found:
            note = _check_paths(d, res.paths, u, v, FLOW_K)
            return Outcome(FAILED if note else OK, {"paths": res.paths}, note)
        note = "cut contains v" if v in res.cut else _check_cut(d, res.cut, u, {v}, FLOW_K)
        return Outcome(FAILED if note else OK, {"cut": sorted(res.cut)}, note)

    def _fan(self, seed: int) -> Outcome:
        d = self.reduced
        rng = random.Random(seed)
        v, *others = rng.sample(range(d.n), FAN_TARGETS + 1)
        targets = set(others)
        res = menger.fan_to_set(d, v, targets, FLOW_K)
        if res.found:
            note = _check_fan(d, res.fan, v, targets, FLOW_K)
            return Outcome(FAILED if note else OK, {"fan": res.fan}, note)
        note = _check_cut(d, res.cut, v, targets, FLOW_K)
        return Outcome(FAILED if note else OK, {"cut": sorted(res.cut)}, note)

    def _two_block(self, pair) -> Outcome:
        found = two_block.find_two_block(
            self.reduced, *pair, budget=self.probe.budget("two_block", 10**7)
        )
        return certified(self.reduced, self.patterns[pair], found, required=True)

    def cli_case(self):
        return self.first_reduced, "twoblock:4,3"


def _check_paths(d, paths, u: int, v: int, k: int) -> str:
    if len(paths) != k:
        return f"{len(paths)} paths for k={k}"
    seen: set[int] = set()
    for p in paths:
        if p[0] != u or p[-1] != v or len(p) < 2 or not core.is_dipath(d, p):
            return "path is not a u-v dipath"
        inner = set(p[1:-1])
        if inner & seen:
            return "paths share an internal vertex"
        seen |= inner
    return ""


def _check_fan(d, fan, v: int, targets: set, k: int) -> str:
    if len(fan) != k:
        return f"{len(fan)} fan paths for k={k}"
    seen: set[int] = set()
    for p in fan:
        if p[0] != v or p[-1] not in targets or not core.is_dipath(d, p):
            return "fan path is not a dipath into the targets"
        if any(w in targets for w in p[:-1]):
            return "fan path crosses the target set early"
        tail = set(p[1:])
        if tail & seen:
            return "fan paths meet outside the apex"
        seen |= tail
    return ""


def _check_cut(d, cut, source: int, targets: set, k: int) -> str:
    """Duality: a cut smaller than k that leaves no target reachable."""
    if len(cut) >= k or source in cut:
        return f"cut of size {len(cut)} for k={k}"
    dist, _ = core.bfs_levels(d, source, avoid=cut)
    if set(dist) & (targets - cut):
        return "cut does not separate"
    return ""


WORKLOADS = {w.name: w for w in (K3eSweep, OracleStress, CabChain, LargeHosts)}
