"""Desk-scale verification of subdivision-forcing degree thresholds.

Exhaustive enumeration of all labelled digraphs on up to five vertices
with a given minimum out-degree, random sampling with degree repair for
larger orders, upper-bound sweeps driven by a finder or by the
exhaustive oracle, and the generic lower-bound witness (the bioriented
clique one vertex smaller than the pattern).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import Digraph, bioriented_clique
from .errors import BadParams, BudgetExceeded, TooLarge
from .oracle import DEFAULT_BUDGET, as_budget, contains_subdivision, require_valid

EXHAUSTIVE_LIMIT = 5


def enumerate_digraphs(n: int, min_out: int, shard: int = 0, shards: int = 1) -> Iterator[Digraph]:
    """Every labelled loopless digraph on n vertices with minimum
    out-degree at least ``min_out``, each exactly once.

    Enumeration iterates per-vertex out-sets in lexicographic order of
    the full arc bitmask (arc (u, v) ordered by (u, v)).  Sharding
    splits the work by the first vertex's out-set, so shards cover
    disjoint ranges and their union is the full enumeration.
    """
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive enumeration capped at {EXHAUSTIVE_LIMIT} vertices")
    if not 0 <= shard < shards:
        raise BadParams(f"need 0 <= shard < shards, got shard {shard} of {shards}")
    if n < 1:
        return
    per_vertex: list[list[tuple[int, ...]]] = []
    for u in range(n):
        pool = [v for v in range(n) if v != u]
        options = [
            comb
            for size in range(min_out, n)
            for comb in itertools.combinations(pool, size)
        ]
        options.sort()
        per_vertex.append(options)
    if not all(per_vertex):
        return
    # every option is a combination of an ascending pool without u, so
    # each row already ascends strictly and holds no loop
    for head in per_vertex[0][shard::shards]:
        for rest in itertools.product(*per_vertex[1:]):
            yield Digraph(n, (head, *rest))


def count_digraphs(n: int, min_out: int) -> int:
    """Closed-form count of the enumeration, for cross-checking."""
    from math import comb

    per_vertex = sum(comb(n - 1, size) for size in range(min_out, n))
    return per_vertex**n


def sample_digraph(rng: random.Random, n: int, min_out: int, p: float = 0.5) -> Digraph:
    """Random arc set repaired up to the degree floor.

    Arcs appear independently with probability p; vertices short of
    ``min_out`` out-arcs then gain their lowest-id missing ones.
    """
    if n < 0:
        raise BadParams(f"a digraph needs n >= 0 vertices, got {n}")
    rows: list[tuple[int, ...]] = []
    for u in range(n):
        row = {v for v in range(n) if v != u and rng.random() < p}
        for v in range(n):
            if len(row) >= min_out:
                break
            if v != u:
                row.add(v)
        rows.append(tuple(sorted(row)))
    return Digraph(n, tuple(rows))


@dataclass(frozen=True)
class MaderReport:
    """Outcome of one degree-threshold sweep."""

    pattern_name: str
    tested_degree: int
    n_max: int
    mode: str  # "exhaustive" or "sampled"
    outcome: str  # "all-contain" | "counterexample" | "inconclusive"
    checked: int
    counterexample: Digraph | None = None
    seed: int | None = None
    budget_failures: int = 0

    def to_json(self) -> str:
        payload = {
            "pattern": self.pattern_name,
            "tested_degree": self.tested_degree,
            "n_max": self.n_max,
            "mode": self.mode,
            "outcome": self.outcome,
            "checked": self.checked,
            "seed": self.seed,
            "budget_failures": self.budget_failures,
        }
        if self.counterexample is not None:
            payload["counterexample"] = {
                "n": self.counterexample.n,
                "arcs": sorted(self.counterexample.arcs()),
            }
        return json.dumps(payload, indent=2)

    def to_csv_row(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(
            [
                self.pattern_name,
                self.tested_degree,
                self.n_max,
                self.mode,
                self.outcome,
                self.checked,
            ]
        )
        return out.getvalue()


CSV_HEADER = "pattern,tested_degree,n_max,mode,outcome,checked\n"


def verify_upper(
    pattern: Digraph,
    tested_degree: int,
    n_max: int,
    mode: str = "exhaustive",
    pattern_name: str = "pattern",
    finder: Callable[[Digraph], object] | None = None,
    samples: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> MaderReport:
    """Check that every host with the given degree floor contains a
    subdivision of the pattern.

    ``finder``, when supplied, must return a certificate or a falsy
    miss; its certificates are re-validated, and any miss, a finder's
    ``BudgetExceeded`` included, is re-checked against the oracle before
    being reported as a counterexample.
    Without a finder the exhaustive oracle decides directly.  An
    exhaustive sweep past ``EXHAUSTIVE_LIMIT`` vertices raises
    ``TooLarge``.  A mode other than ``"exhaustive"`` or ``"sampled"``,
    a negative degree or budget, a sampled sweep with no sample, and a
    sweep whose ``n_max`` leaves no host size raise ``BadParams``:
    the smallest host has ``max(tested_degree + 1, 2)`` vertices in an
    exhaustive sweep and ``max(tested_degree + 1, 3)`` in a sampled one.
    Each is raised before any host is checked.
    """
    if mode not in ("exhaustive", "sampled"):
        raise BadParams(f"unknown mode {mode!r}")
    if tested_degree < 0:
        raise BadParams(f"tested degree {tested_degree} is negative")
    as_budget(budget)  # rejects a negative budget before any host
    if mode == "exhaustive" and n_max > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive enumeration capped at {EXHAUSTIVE_LIMIT} vertices")
    n_min = max(tested_degree + 1, 2 if mode == "exhaustive" else 3)
    if mode == "sampled" and samples < 1:
        raise BadParams(f"a sampled sweep needs samples >= 1, got {samples}")
    if n_max < n_min:
        raise BadParams(f"{mode} sweep at degree {tested_degree} needs n_max >= {n_min}")
    checked = 0
    budget_failures = 0

    def contains(d: Digraph) -> bool | None:
        nonlocal budget_failures
        try:
            found = finder(d) if finder is not None else None
        except BudgetExceeded:
            found = None
        if found:
            require_valid(d, pattern, found, "finder certificate")
            return True
        try:
            cert = contains_subdivision(d, pattern, budget)
        except BudgetExceeded:
            budget_failures += 1
            return None
        return cert is not None

    def hosts() -> Iterator[Digraph]:
        if mode == "exhaustive":
            for n in range(n_min, n_max + 1):
                yield from enumerate_digraphs(n, tested_degree)
        else:
            rng = random.Random(seed)
            for _ in range(samples):
                n = rng.randrange(n_min, n_max + 1)
                yield sample_digraph(rng, n, tested_degree)

    counterexample = None
    for d in hosts():
        checked += 1
        if contains(d) is False:
            counterexample = d
            break
    if counterexample is not None:
        outcome = "counterexample"
    elif budget_failures:
        outcome = "inconclusive"
    else:
        outcome = "all-contain"
    return MaderReport(
        pattern_name=pattern_name,
        tested_degree=tested_degree,
        n_max=n_max,
        mode=mode,
        outcome=outcome,
        checked=checked,
        counterexample=counterexample,
        seed=seed if mode == "sampled" else None,
        budget_failures=budget_failures,
    )


def lower_witness(pattern: Digraph) -> Digraph:
    """The bioriented clique one vertex smaller than the pattern.

    It hosts no subdivision of the pattern, since a subdivision has at
    least as many vertices as its pattern; so no search is run.  A
    pattern with fewer than two vertices raises ``BadParams``.
    """
    if pattern.n < 2:
        raise BadParams("pattern needs at least two vertices")
    return bioriented_clique(pattern.n - 1)
