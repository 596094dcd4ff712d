"""Finding subdivisions of the bioriented triangle minus an arc.

Any digraph with one vertex of out-degree at least 1 and all others of
out-degree at least 2 contains one.  The search runs the underlying
argument as one loop of explicit reduction steps: trim to exact
out-degrees, descend into a terminal strong component, cut along a
one-vertex separator (re-entering through a bridging dipath), or
contract the special vertex's out-arc; the loop ends when a two-path
fan yields the certificate.  Every step works on one list of out-rows
on the input's own ids (trim and contraction edit it in place): a
vertex a step removes keeps an empty row, so the live vertices are
those with out-arcs, and every step leaves fewer of them.  Only the
fan query builds a ``Digraph``, from the rows as they stand.  Separator
and contraction steps push the data that lifts a certificate back
across them, and the stack is replayed in reverse before returning.
"""

from __future__ import annotations

from .core import Digraph, Path, _components, bfs_levels, bfs_path, k3_minus_e
from .errors import InvariantViolation, VertexOutOfRange
from .menger import fan_to_set
from .oracle import SubdivisionCertificate, _contract_rows, lift_contraction, require_valid
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
    # vertex, so the loop ends within n passes
    host, lifts, n = d, [], d.n
    rows = list(map(d.out_nbrs, d.vertices()))
    strong = False
    for _ in range(n):
        if not strong:
            _trim(rows, v0)
            comps = _components(rows, [v for v in range(n) if rows[v]])
            if len(comps) > 1:
                term = _terminal_component(rows, comps)
                rows = [row if v in term else () for v, row in enumerate(rows)]
                # with v0 kept, the next pass's trim and Tarjan could only
                # return this strong, trimmed component with no way out
                strong = v0 in term
                v0 = v0 if strong else min(term)
                trace.append({"event": "terminal-component", "size": len(term), "v0": v0})
                continue
        strong = False

        (v1,) = rows[v0]
        ins0, ins1 = [], []
        for x, row in enumerate(rows):
            if v0 in row:
                ins0.append(x)
            if v1 in row:
                ins1.append(x)
        common = set(ins0).intersection(ins1)
        if common:
            z0 = min(common)
            d = Digraph(n, tuple(rows))
            res = fan_to_set(d, v1, {v0, z0}, 2)
            if res.found:
                trace.append({"event": "fan", "v0": v0, "v1": v1, "z0": z0})
                cert = _fan_certificate(v0, v1, z0, res.fan)
                break
            rows, v0, bridge = _separate(d, v0, v1, z0, res.cut, trace)
            lifts.append((_lift_partition, bridge))
            continue

        # contract: v0 and v1 share no in-neighbour, so merging v1 into v0
        # keeps every out-degree intact; the merged row is v1's, and the
        # next trim keeps its lowest entry v2
        v2 = next(w for w in rows[v1] if w != v0)
        redirected = [x for x in ins1 if x != v0]
        record = _contract_rows(rows, v0, v1, v0, ins1, ins0)
        trace.append({"event": "contract", "v0": v0, "v1": v1, "v2": v2, "redirected": redirected})
        lifts.append((lift_contraction, record))
    else:
        raise InvariantViolation(f"reductions ran past {n} steps")

    for lift, data in reversed(lifts):
        cert = lift(cert, data)
    return require_valid(host, _PATTERN, cert, "lifted certificate")


# ---------------------------------------------------------------------------
# the reduction steps
# ---------------------------------------------------------------------------

def _trim(rows: list, v0: int) -> None:
    """Every row cut to its lowest entries, in place: one for v0, two
    elsewhere."""
    for v, row in enumerate(rows):
        if len(row) > 2:
            rows[v] = row[:2]
    rows[v0] = rows[v0][:1]


def _terminal_component(rows: list, comps: list[list[int]]) -> set[int]:
    """The first strong component Tarjan emits from the live vertices.
    Live vertices only point to live ones, and Tarjan emits a component
    only after every component it reaches, so this one has no outgoing
    arc."""
    term = set(comps[0])
    if any(w not in term for v in term for w in rows[v]):
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
              trace: list) -> tuple[list, int, Path]:
    """The side of the one-vertex cut that v1 reaches, entered from the
    separator s0 by a stand-in arc for a bridging dipath; returns that
    side's out-rows, s0 and the bridge."""
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
    return rows, s0, bridge


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
