"""Finding subdivisions of the bioriented triangle minus an arc.

Any digraph with one vertex of out-degree at least 1 and all others of
out-degree at least 2 contains one.  The search runs the underlying
argument as a recursion with explicit reduction steps: trim to exact
out-degrees, descend into a terminal strong component, cut along a
one-vertex separator (re-entering through a bridging dipath), or
contract the special vertex into its successor; the base case reads the
certificate off a two-path fan.  Every reduction records enough data to
lift a child certificate back to its parent graph, and the lift chain
is replayed before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AdjView, Digraph, Path, bfs_levels, bfs_path, build_digraph, k3_minus_e, strong_components
from .errors import DepthBudgetExceeded, PreconditionViolated
from .menger import fan_to_set
from .oracle import SubdivisionCertificate, validate_certificate

Adj = dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class PartitionStep:
    """Separator cut: recurse on one side plus a bridging dipath."""

    s0: int
    bridge: Path  # s0 .. w, interior outside the kept side


@dataclass(frozen=True)
class ContractStep:
    """The special vertex was merged into its successor."""

    v0: int
    v1: int
    v2: int
    redirected: tuple[int, ...]  # in-neighbours of v1 rerouted to v0
    real_in: tuple[int, ...]  # in-neighbours v0 kept


def find_k3e(d: Digraph, v0: int | None = None,
             trace: list | None = None) -> SubdivisionCertificate:
    """Certificate for a subdivision of the bioriented triangle minus an
    arc, in any digraph meeting the degree precondition.

    ``v0`` is the vertex allowed out-degree 1 (default: a vertex of
    minimum out-degree).  Raises ``PreconditionViolated`` when some
    other vertex has out-degree below 2.  ``trace``, when given, collects
    one dict per reduction step for debugging lift chains.
    """
    if d.n == 0:
        raise PreconditionViolated(-1, "empty graph")
    if v0 is None:
        v0 = min(d.vertices(), key=lambda v: (d.out_degree(v), v))
    if d.out_degree(v0) < 1:
        raise PreconditionViolated(v0)
    for v in d.vertices():
        if v != v0 and d.out_degree(v) < 2:
            raise PreconditionViolated(v)

    adj: Adj = {v: d.out_nbrs(v) for v in d.vertices()}
    cert = _solve(adj, v0, 2 * d.n + 16, trace)
    report = validate_certificate(d, k3_minus_e(), cert)
    assert report, f"lifted certificate invalid: {report.violation}"
    return cert


# ---------------------------------------------------------------------------
# dict-graph helpers (stable vertex ids across reductions)
# ---------------------------------------------------------------------------

def _in_map(adj: Adj) -> dict[int, list[int]]:
    inn: dict[int, list[int]] = {v: [] for v in adj}
    for u, outs in adj.items():
        for v in outs:
            inn[v].append(u)
    return inn


def _trim(adj: Adj, v0: int) -> Adj:
    out: Adj = {}
    for v, nbrs in adj.items():
        keep = 1 if v == v0 else 2
        out[v] = tuple(sorted(nbrs)[:keep])
    return out


def _as_digraph(adj: Adj) -> tuple[Digraph, list[int]]:
    ids = sorted(adj)
    pos = {v: i for i, v in enumerate(ids)}
    return build_digraph(len(ids), [(pos[u], pos[v]) for u, outs in adj.items() for v in outs]), ids


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def _solve(adj: Adj, v0: int, depth: int, trace: list | None = None) -> SubdivisionCertificate:
    if depth <= 0:
        raise DepthBudgetExceeded("reduction chain exceeded its bound")
    adj = _trim(adj, v0)
    host = AdjView(adj)

    comps = strong_components(host)
    if len(comps) > 1:
        term = _terminal_component(adj, comps)
        sub = {v: tuple(w for w in adj[v] if w in term) for v in term}
        new_v0 = v0 if v0 in term else min(term)
        _note(trace, {"step": "terminal-component", "size": len(term), "v0": new_v0})
        return _solve(sub, new_v0, depth - 1, trace)

    (v1,) = adj[v0]
    inn = _in_map(adj)
    common = sorted(set(inn[v0]) & set(inn[v1]))

    if common:
        z0 = common[0]
        return _case_fan(host, v0, v1, z0, depth, trace)

    # contract: v0 and v1 share no in-neighbour, so merging v0 into v1
    # keeps every out-degree intact
    v2 = next(w for w in adj[v1] if w != v0)
    redirected = tuple(sorted(x for x in inn[v1] if x != v0))
    real_in = tuple(sorted(x for x in inn[v0] if x != v1))
    child: Adj = {}
    for v, outs in adj.items():
        if v == v1:
            continue
        row = set(outs)
        row.discard(v1)
        if v == v0:
            row.add(v2)
        elif v in redirected:
            assert v0 not in row, "shared in-neighbour slipped past the case split"
            row.add(v0)
        child[v] = tuple(sorted(row))
    step = ContractStep(v0=v0, v1=v1, v2=v2, redirected=redirected, real_in=real_in)
    _note(trace, {"step": "contract", "v0": v0, "v1": v1, "v2": v2, "redirected": list(redirected)})
    cert = _solve(child, v0, depth - 1, trace)
    return _lift_contract(cert, step)


def _note(trace: list | None, event: dict) -> None:
    if trace is not None:
        trace.append(event)


def _terminal_component(adj: Adj, comps: list[list[int]]) -> set[int]:
    """Lowest-representative strong component with no outgoing arcs."""
    for comp in comps:
        comp_set = set(comp)
        if all(w in comp_set for v in comp for w in adj[v]):
            return comp_set
    raise AssertionError("no terminal strong component")


def _case_fan(host: AdjView, v0: int, v1: int, z0: int, depth: int, trace: list | None = None) -> SubdivisionCertificate:
    adj = host.adj
    d_sub, ids = _as_digraph(adj)
    pos = {v: i for i, v in enumerate(ids)}
    res = fan_to_set(d_sub, pos[v1], {pos[v0], pos[z0]}, 2)

    if res.found:
        _note(trace, {"step": "fan", "v0": v0, "v1": v1, "z0": z0})
        fan = [tuple(ids[i] for i in p) for p in res.fan]
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

    cut = {ids[i] for i in res.cut}
    assert len(cut) == 1, "a strong graph cannot have an empty fan cut"
    (s0,) = cut
    w_side = set(bfs_levels(host, v1, avoid={s0})[0])
    assert v0 not in w_side and z0 not in w_side

    bridge = bfs_path(host, s0, w_side)
    assert bridge is not None, "strong graph must reach the kept side"
    w = bridge[-1]
    child: Adj = {
        v: tuple(sorted(set(x for x in adj[v] if x in w_side or x == s0)))
        for v in w_side
    }
    child[s0] = tuple(sorted(set(x for x in adj[s0] if x in w_side) | {w}))
    step = PartitionStep(s0=s0, bridge=bridge)
    _note(trace, {"step": "partition", "s0": s0, "kept": len(w_side), "bridge": list(bridge)})
    cert = _solve(child, s0, depth - 1, trace)
    return _lift_partition(cert, step)


# ---------------------------------------------------------------------------
# certificate lifts
# ---------------------------------------------------------------------------

def _paths_using(cert: SubdivisionCertificate, arc: tuple[int, int]):
    for key, p in cert.paths.items():
        for i in range(len(p) - 1):
            if (p[i], p[i + 1]) == arc:
                yield key, i


def _splice(path: Path, at: int, replacement: Path) -> Path:
    """Replace the arc path[at] -> path[at+1] by a dipath between them."""
    assert replacement[0] == path[at] and replacement[-1] == path[at + 1]
    return path[: at] + replacement[:-1] + path[at + 1 :]


def _lift_partition(cert: SubdivisionCertificate, step: PartitionStep) -> SubdivisionCertificate:
    if len(step.bridge) == 2:
        return cert  # the bridging arc is real
    hits = list(_paths_using(cert, (step.s0, step.bridge[-1])))
    if not hits:
        return cert
    (key, at), = hits
    paths = dict(cert.paths)
    paths[key] = _splice(paths[key], at, step.bridge)
    return SubdivisionCertificate(branch=dict(cert.branch), paths=paths)


def _lift_contract(cert: SubdivisionCertificate, step: ContractStep) -> SubdivisionCertificate:
    v0, v1, v2 = step.v0, step.v1, step.v2
    used = cert.vertices()
    if v0 not in used:
        return cert

    paths = dict(cert.paths)
    branch = dict(cert.branch)

    out_hits = list(_paths_using(cert, (v0, v2)))
    assert len(out_hits) == 1, "the special vertex has a unique out-arc"
    in_hits = [
        (key, i)
        for key, p in paths.items()
        for i in range(len(p) - 1)
        if p[i + 1] == v0
    ]
    assert 1 <= len(in_hits) <= 2

    def classify(x: int) -> str:
        if x in step.real_in:
            return "real"
        assert x in step.redirected, f"unexpected in-neighbour {x}"
        return "redirected"

    kinds = {key: classify(paths[key][i]) for key, i in in_hits}

    if all(kind == "real" for kind in kinds.values()):
        # v0 keeps its role; the out-arc gains v1 in the middle
        key, at = out_hits[0]
        paths[key] = _splice(paths[key], at, (v0, v1, v2))
    elif all(kind == "redirected" for kind in kinds.values()):
        # v1 takes over v0's role everywhere
        for key in list(paths):
            paths[key] = tuple(v1 if v == v0 else v for v in paths[key])
        branch = {pv: (v1 if hv == v0 else hv) for pv, hv in branch.items()}
    else:
        # one real, one redirected: v1 becomes the branch point, v0 stays
        # as an interior vertex on the real in-path
        (real_key,) = [k for k, kind in kinds.items() if kind == "real"]
        (redir_key,) = [k for k, kind in kinds.items() if kind == "redirected"]
        paths[real_key] = paths[real_key] + (v1,)
        paths[redir_key] = tuple(v1 if v == v0 else v for v in paths[redir_key])
        out_key, at = out_hits[0]
        assert at == 0, "the special vertex must head its out-path"
        paths[out_key] = (v1,) + paths[out_key][1:]
        branch = {pv: (v1 if hv == v0 else hv) for pv, hv in branch.items()}
    return SubdivisionCertificate(branch=branch, paths=paths)
