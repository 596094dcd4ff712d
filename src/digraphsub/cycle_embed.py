"""Recognising oriented-cycle digraphs and reading certificates off them.

An oriented cycle decomposes into *blocks*: maximal directed subpaths,
each running from a source (out-degree 2 on the cycle) to a sink
(in-degree 2).  A digraph spans a subdivision of an oriented-cycle
pattern exactly when it is itself an oriented cycle whose cyclic block
sequence matches the pattern's up to rotation and traversal direction,
blockwise at least as long.  This module performs that matching and
emits explicit certificates; it is shared by the alternating-path
joiner and the finders.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Arc, Digraph, Path
from .oracle import SubdivisionCertificate, validate_certificate


@dataclass(frozen=True)
class Block:
    """One maximal directed run of a cycle: a dipath from source to sink."""

    path: Path  # source .. sink
    forward: bool  # True when the cyclic walk traverses source -> sink


@dataclass(frozen=True)
class CycleShape:
    """Block decomposition of an oriented cycle arc set."""

    blocks: tuple[Block, ...]  # empty for directed cycles
    dicycle: Path | None  # vertex sequence when fully directed

    @property
    def sources(self) -> int:
        return len(self.blocks) // 2


def cycle_shape(arcs) -> CycleShape | None:
    """Decompose an arc set that forms one oriented cycle; else ``None``.

    Accepts the digon {(u, v), (v, u)} as the directed cycle of length
    two.  Any vertex of total degree other than two, or a disconnected
    arc set, disqualifies.
    """
    arc_set = set(arcs)
    if not arc_set:
        return None
    if len(arc_set) == 2:
        (u1, v1), (u2, v2) = sorted(arc_set)
        if u1 == v2 and v1 == u2:
            return CycleShape(blocks=(), dicycle=(u1, v1))

    out: dict[int, list[int]] = {}
    inc: dict[int, list[int]] = {}
    for u, v in arc_set:
        out.setdefault(u, []).append(v)
        inc.setdefault(v, []).append(u)
        out.setdefault(v, [])
        inc.setdefault(u, [])
    verts = sorted(out)
    if any(len(out[v]) + len(inc[v]) != 2 for v in verts):
        return None

    # walk the underlying cycle
    start = verts[0]
    seq = [start]
    dirs: list[bool] = []  # dirs[i]: arc between seq[i], seq[i+1] points forward
    incident = out[start] + inc[start]
    nxt = incident[0]
    dirs.append(nxt in out[start])
    seq.append(nxt)
    while (cur := seq[-1]) != start:
        prev = seq[-2]
        nbrs = [(w, True) for w in out[cur]] + [(w, False) for w in inc[cur]]
        step = [(w, f) for w, f in nbrs if w != prev]
        if len(step) != 1:
            return None  # a digon inside a larger arc set
        w, f = step[0]
        seq.append(w)
        dirs.append(f)
    seq.pop()  # closing repeat of start
    if len(seq) != len(verts):
        return None  # disconnected

    # the walk leaves start by an out-arc when it has one, so a directed
    # cycle is walked forwards and no walk runs all backwards
    if all(dirs):
        return CycleShape(blocks=(), dicycle=tuple(seq))

    # rotate so the walk starts at a direction change (a source)
    n = len(seq)
    pivot = next(i for i in range(n) if dirs[i] and not dirs[i - 1])
    seq = seq[pivot:] + seq[:pivot]
    dirs = dirs[pivot:] + dirs[:pivot]

    blocks: list[Block] = []
    i = 0
    while i < n:
        j = i
        while j < n and dirs[j] == dirs[i]:
            j += 1
        run = seq[i : j + 1] if j < n else seq[i:] + [seq[0]]
        if dirs[i]:
            blocks.append(Block(path=tuple(run), forward=True))
        else:
            blocks.append(Block(path=tuple(reversed(run)), forward=False))
        i = j
    return CycleShape(blocks=tuple(blocks), dicycle=None)


def digraph_cycle_shape(d: Digraph) -> CycleShape | None:
    """Shape of the whole digraph when it is exactly one oriented cycle."""
    return cycle_shape(d.arcs()) if d.m == d.n else None


def _rotations(blocks: tuple[Block, ...]):
    k = len(blocks)
    for r in range(k):
        yield blocks[r:] + blocks[:r]


def _reversed_walk(blocks: tuple[Block, ...]) -> tuple[Block, ...]:
    return tuple(
        Block(path=b.path, forward=not b.forward)
        for b in reversed(blocks)
    )


def lay_path(pattern_path: Path, host_path: Path, branch, paths) -> bool:
    """Lay one pattern dipath onto a host dipath of at least its length.

    Pattern vertices other than the last ride the host prefix one-to-one
    and the final pattern arc absorbs the remaining host segment; branch
    conflicts report failure.
    """
    k = len(pattern_path) - 1
    if len(host_path) - 1 < k:
        return False
    for i, pv in enumerate(pattern_path[:-1]):
        hv = host_path[i]
        if branch.setdefault(pv, hv) != hv:
            return False
    if branch.setdefault(pattern_path[-1], host_path[-1]) != host_path[-1]:
        return False
    for i in range(k - 1):
        paths[(pattern_path[i], pattern_path[i + 1])] = (host_path[i], host_path[i + 1])
    paths[(pattern_path[k - 1], pattern_path[k])] = tuple(host_path[k - 1 :])
    return True


def certificate_from_cycle(host_arcs, pattern: Digraph, host: Digraph) -> SubdivisionCertificate | None:
    """Certificate that the oriented cycle ``host_arcs`` spans a subdivision
    of the oriented-cycle ``pattern``.

    ``host_arcs`` must form one oriented cycle inside ``host``; the
    pattern must itself be an orientation of a cycle.  ``None`` when no
    rotation or traversal direction aligns.
    """
    host_shape = cycle_shape(host_arcs)
    pat_shape = digraph_cycle_shape(pattern)
    if host_shape is None or pat_shape is None:
        return None

    if pat_shape.dicycle is not None:
        if host_shape.dicycle is None:
            return None
        return _dicycle_certificate(host_shape.dicycle, pat_shape.dicycle, pattern, host)
    if host_shape.dicycle is not None:
        return None
    if len(host_shape.blocks) != len(pat_shape.blocks):
        return None

    for walk in (host_shape.blocks, _reversed_walk(host_shape.blocks)):
        for rotation in _rotations(walk):
            if any(h.forward != p.forward for h, p in zip(rotation, pat_shape.blocks)):
                continue
            branch: dict[int, int] = {}
            paths: dict[Arc, Path] = {}
            if all(
                lay_path(p.path, h.path, branch, paths)
                for h, p in zip(rotation, pat_shape.blocks)
            ):
                cert = SubdivisionCertificate(branch=branch, paths=paths)
                if validate_certificate(host, pattern, cert):
                    return cert
    return None


def _dicycle_certificate(host_cycle: Path, pat_cycle: Path, pattern: Digraph, host: Digraph) -> SubdivisionCertificate | None:
    """The pattern cycle laid from the host cycle's first vertex; its
    closing arc absorbs the host cycle's surplus."""
    branch: dict[int, int] = {}
    paths: dict[Arc, Path] = {}
    if not lay_path(pat_cycle + pat_cycle[:1], host_cycle + host_cycle[:1], branch, paths):
        return None
    cert = SubdivisionCertificate(branch=branch, paths=paths)
    return cert if validate_certificate(host, pattern, cert) else None
