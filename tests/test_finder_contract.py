"""Every finder keeps one contract: it returns a certificate that
validates, or a ``NotFound`` with a reason, or (under a fixed budget)
raises ``BudgetExceeded``; and every event it logs has an ``event`` key.
Random hosts of every density on 0-7 vertices sit mostly below each
finder's guarantee, so this is the misses' contract as much as the
certificates'."""

import random

from digraphsub.cab import find_cab, find_oriented_cycle_subdivision
from digraphsub.core import directed_cycle, k3_minus_e, pattern_cab, pattern_two_block
from digraphsub.errors import BudgetExceeded
from digraphsub.k3e import find_k3e
from digraphsub.oracle import SubdivisionCertificate, validate_certificate
from digraphsub.outcome import NotFound
from digraphsub.two_block import find_two_block

from .conftest import rand_digraph

BUDGET = 5000
ORIENTATIONS = [
    directed_cycle(3),
    pattern_cab(2, 1),
    pattern_two_block(2, 1),
    pattern_two_block(3, 2),
    pattern_cab(2, 2),
]


def _finders():
    """(pattern, finder(d, log)) for every finder under the contract."""
    yield k3_minus_e(), lambda d, log: find_k3e(d, trace=log)
    for k1, k2 in ((2, 2), (3, 1)):
        yield pattern_two_block(k1, k2), lambda d, log, k1=k1, k2=k2: find_two_block(d, k1, k2, BUDGET, log)
    yield pattern_cab(2, 1), lambda d, log: find_cab(d, 2, 1, BUDGET, log)
    for shape in ORIENTATIONS:
        yield shape, lambda d, log, shape=shape: find_oriented_cycle_subdivision(d, shape, BUDGET, log)


def test_every_finder_certifies_misses_or_runs_out():
    rng = random.Random(0xF1D)
    finders = list(_finders())
    outcomes = {"certificate": 0, "miss": 0, "budget": 0}
    for _ in range(600):
        d = rand_digraph(rng, rng.randrange(8), rng.random())
        for pattern, finder in finders:
            log = []
            try:
                found = finder(d, log)
            except BudgetExceeded:
                outcomes["budget"] += 1
                continue
            if isinstance(found, SubdivisionCertificate):
                report = validate_certificate(d, pattern, found)
                assert report, report.violation
                outcomes["certificate"] += 1
            else:
                assert isinstance(found, NotFound) and found.reason, found
                outcomes["miss"] += 1
            assert all("event" in e for e in log), log
    assert outcomes["certificate"] > 500 and outcomes["miss"] > 500
