"""Scaling laws pinned by counts rather than by time.

Each family runs one finder at sizes that double and bounds the growth
of a deterministic count per doubling, so work that turns quadratic
fails here on any machine.  The counters wrap library code from the
test side only; the package has no hook for them.
"""

from digraphsub.core import Digraph, build_digraph
from digraphsub.k3e import find_k3e

DOUBLING = 2.2  # allowed growth of a count when the size doubles


def forced_contraction_host(L: int) -> Digraph:
    """A dipath 0 -> 1 -> ... -> L beside a dicycle on L + 1 more
    vertices; the j-th cycle vertex points back to path vertex j, and
    path vertex i > 0 points into the cycle too.  With v0 = 0, find_k3e
    contracts v0's out-arc L times before its fan closes."""
    B = L + 1
    arcs = [(0, 1), (L, B), (L, B + 1)]
    for i in range(1, L):
        arcs += [(i, i + 1), (i, B + (i + 7) % B)]
    for j in range(B):
        arcs += [(B + j, B + (j + 1) % B), (B + j, j)]
    return build_digraph(2 * B, arcs)


class TestK3eForcedContractions:
    @staticmethod
    def _rows_and_steps(monkeypatch, L: int) -> tuple[int, int]:
        d = forced_contraction_host(L)
        built = [0]
        init = Digraph.__init__

        def counting_init(self, n, out_adj):
            built[0] += n
            init(self, n, out_adj)

        trace = []
        with monkeypatch.context() as m:
            m.setattr(Digraph, "__init__", counting_init)
            find_k3e(d, 0, trace=trace)
        return built[0], len(trace)

    def test_rows_built_and_steps_grow_linearly(self, monkeypatch):
        # copying every row at every step would read 4x per doubling
        counts = [self._rows_and_steps(monkeypatch, L) for L in (150, 300, 600)]
        assert [steps for _, steps in counts] == [151, 301, 601]
        for (rows, steps), (rows2, steps2) in zip(counts, counts[1:]):
            assert rows2 <= DOUBLING * rows, counts
            assert steps2 <= DOUBLING * steps, counts
