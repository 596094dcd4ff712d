"""Finding subdivisions of the bioriented triangle minus an arc.

Any digraph with one vertex of out-degree at least 1 and all others of
out-degree at least 2 contains one.  The search runs the underlying
argument as one loop of explicit reduction steps: trim to exact
out-degrees, descend into a terminal strong component, cut along a
one-vertex separator (re-entering through a bridging dipath), or
contract the special vertex's out-arc; the loop ends when a two-path
fan yields the certificate.  Every step works on a plain ``Digraph`` on
the input's own ids: a vertex a step removes stays behind isolated, so
the live vertices are those with out-arcs, and every step leaves fewer
of them.  Separator and contraction steps push the data that lifts a
certificate back across them, and the stack is replayed in reverse
before returning.
"""

from __future__ import annotations

from .core import Digraph, Path, bfs_levels, bfs_path, k3_minus_e, strong_components
from .errors import InvariantViolation, VertexOutOfRange
from .menger import fan_to_set
from .oracle import SubdivisionCertificate, contract_arc, lift_contraction, require_valid
from .outcome import NotFound

_PATTERN = k3_minus_e()


def find_k3e(d: Digraph, v0: int | None = None,
             trace: list | None = None) -> SubdivisionCertificate | NotFound:
    """Certificate for a subdivision of the bioriented triangle minus an
    arc, in any digraph meeting the degree precondition.

    ``v0`` is the vertex allowed out-degree 1 (default: a vertex of
    minimum out-degree; an id outside ``0..n-1`` raises
    ``VertexOutOfRange``).  An empty host, a ``v0`` without an out-arc,
    or another vertex of out-degree below 2 returns
    ``NotFound("precondition")``.  ``trace``, when given, collects one
    event dict per reduction step for debugging lift chains.
    """
    trace = [] if trace is None else trace
    if d.n == 0:
        return NotFound("precondition", {"n": 0})
    if v0 is None:
        v0 = min(d.vertices(), key=lambda v: (d.out_degree(v), v))
    elif not 0 <= v0 < d.n:
        raise VertexOutOfRange(f"v0 = {v0} outside 0..{d.n - 1}")
    for v in d.vertices():
        if d.out_degree(v) < (1 if v == v0 else 2):
            return NotFound("precondition", {"vertex": v})

    # each pass either ends at the fan or removes at least one live
    # vertex, so the loop ends within d.n passes
    host, lifts = d, []
    for _ in range(host.n):
        d = _trim(d, v0)
        comps = [comp for comp in strong_components(d) if d.out_nbrs(comp[0])]
        if len(comps) > 1:
            term = _terminal_component(d, comps)
            d = Digraph(d.n, tuple(d.out_nbrs(v) if v in term else () for v in d.vertices()))
            v0 = v0 if v0 in term else min(term)
            trace.append({"event": "terminal-component", "size": len(term), "v0": v0})
            continue

        (v1,) = d.out_nbrs(v0)
        common = sorted(set(d.in_nbrs(v0)) & set(d.in_nbrs(v1)))
        if common:
            z0 = common[0]
            res = fan_to_set(d, v1, {v0, z0}, 2)
            if res.found:
                trace.append({"event": "fan", "v0": v0, "v1": v1, "z0": z0})
                cert = _fan_certificate(v0, v1, z0, res.fan)
                break
            d, v0, bridge = _separate(d, v0, v1, z0, res.cut, trace)
            lifts.append((_lift_partition, bridge))
            continue

        # contract: v0 and v1 share no in-neighbour, so merging v1 into v0
        # keeps every out-degree intact; the merged row is v1's, and the
        # next trim keeps its lowest entry v2
        v2 = next(w for w in d.out_nbrs(v1) if w != v0)
        redirected = [x for x in d.in_nbrs(v1) if x != v0]
        d, record = contract_arc(d, v0, v1, keep=v0)
        trace.append({"event": "contract", "v0": v0, "v1": v1, "v2": v2, "redirected": redirected})
        lifts.append((lift_contraction, record))
    else:
        raise InvariantViolation(f"reductions ran past {host.n} steps")

    for lift, data in reversed(lifts):
        cert = lift(cert, data)
    return require_valid(host, _PATTERN, cert, "lifted certificate")


# ---------------------------------------------------------------------------
# the reduction steps
# ---------------------------------------------------------------------------

def _trim(d: Digraph, v0: int) -> Digraph:
    """Every row cut to its lowest entries: one for v0, two elsewhere."""
    return Digraph(d.n, tuple(d.out_nbrs(v)[: 1 if v == v0 else 2] for v in d.vertices()))


def _terminal_component(d: Digraph, comps: list[list[int]]) -> set[int]:
    """The first live strong component Tarjan emits.  Live vertices only
    point to live ones, and Tarjan emits a component only after every
    component it reaches, so this one has no outgoing arc."""
    term = set(comps[0])
    if any(w not in term for v in term for w in d.out_nbrs(v)):
        raise InvariantViolation("first live strong component has an outgoing arc")
    return term


def _fan_certificate(v0: int, v1: int, z0: int, fan) -> SubdivisionCertificate:
    """The base case: z0 sends arcs to v0 and v1, v0's arc enters v1, and
    the fan leads from v1 back to v0 and to z0."""
    to_v0 = next(p for p in fan if p[-1] == v0)
    to_z0 = next(p for p in fan if p[-1] == z0)
    return SubdivisionCertificate(
        branch={0: v0, 1: v1, 2: z0},
        paths={
            (0, 1): (v0, v1),
            (1, 0): to_v0,
            (1, 2): to_z0,
            (2, 1): (z0, v1),
            (2, 0): (z0, v0),
        },
    )


def _separate(d: Digraph, v0: int, v1: int, z0: int, cut,
              trace: list) -> tuple[Digraph, int, Path]:
    """The side of the one-vertex cut that v1 reaches, entered from the
    separator s0 by a stand-in arc for a bridging dipath; returns that
    graph, s0 and the bridge."""
    if len(cut) != 1:
        raise InvariantViolation("a strong graph cannot have an empty fan cut")
    (s0,) = cut
    w_side = set(bfs_levels(d, v1, avoid={s0})[0])
    if v0 in w_side or z0 in w_side:
        raise InvariantViolation("the separator does not cut v1 off from v0 and z0")

    bridge = bfs_path(d, s0, w_side)
    if bridge is None:
        raise InvariantViolation("strong graph must reach the kept side")
    rows = [()] * d.n
    for v in w_side:  # v1's reach avoiding s0: every out-arc stays in it or enters s0
        rows[v] = d.out_nbrs(v)
    rows[s0] = tuple(sorted({x for x in d.out_nbrs(s0) if x in w_side} | {bridge[-1]}))
    trace.append({"event": "partition", "s0": s0, "kept": len(w_side), "bridge": list(bridge)})
    return Digraph(d.n, tuple(rows)), s0, bridge


def _lift_partition(cert: SubdivisionCertificate, bridge: Path) -> SubdivisionCertificate:
    """Replace the stand-in arc from the separator to the bridge's end by
    the bridge itself."""
    if len(bridge) == 2:
        return cert  # the bridging arc is real
    s0, w = bridge[0], bridge[-1]
    for key, p in cert.paths.items():
        for i in range(len(p) - 1):
            if p[i] == s0 and p[i + 1] == w:
                paths = dict(cert.paths)
                paths[key] = p[:i] + bridge + p[i + 2:]
                return SubdivisionCertificate(branch=dict(cert.branch), paths=paths)
    return cert
