"""Arc-connected hosts avoiding bioriented-clique and star subdivisions.

Two joins, each parameterized by an externally supplied building block:
a digraph with no even directed cycle yields an arbitrarily
arc-connected host with no bioriented-4-clique subdivision, and one
with no bioriented-3-star subdivision yields a host with no
bioriented-4-star subdivision.  The blocks themselves are inputs (only
small instances such as odd directed cycles ship with the package);
the joins add the mirror copy, the complete cross arcs and the apex
wiring, and report a layout map so callers can address the pieces by
role.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    Digraph,
    bioriented_star,
    build_digraph,
    directed_cycle,
    file_comments,
    min_out_degree,
    read_edge_list,
)
from .errors import BudgetExceeded, ParseError, PropertyMismatch
from .oracle import contains_subdivision, has_even_dicycle


class BlockProperty(Enum):
    NO_EVEN_DICYCLE = "no-even-dicycle"
    NO_S3_SUBDIVISION = "no-s3-subdivision"


@dataclass(frozen=True)
class BuildingBlock:
    """Externally supplied digraph with a claimed structural property."""

    graph: Digraph
    claimed: BlockProperty
    k: int

    @classmethod
    def wrap(cls, graph: Digraph, claimed: BlockProperty) -> "BuildingBlock":
        """Wrap ``graph`` once the oracle confirms the claim within the
        default budget; ``PropertyMismatch`` otherwise."""
        try:
            if claimed is BlockProperty.NO_EVEN_DICYCLE:
                verified = not has_even_dicycle(graph)
            else:
                verified = contains_subdivision(graph, bioriented_star(3)) is None
        except BudgetExceeded:
            verified = False
        if not verified:
            raise PropertyMismatch(f"block does not satisfy {claimed.value}")
        return cls(graph=graph, claimed=claimed, k=min_out_degree(graph))


def odd_cycle_block(length: int = 5) -> BuildingBlock:
    """The smallest shipped block with no even directed cycle."""
    if length % 2 == 0:
        raise PropertyMismatch("an even cycle is itself an even dicycle")
    return BuildingBlock.wrap(directed_cycle(length), BlockProperty.NO_EVEN_DICYCLE)


def cycle_block_for_star(length: int = 4) -> BuildingBlock:
    """A directed cycle has no bioriented-3-star subdivision."""
    return BuildingBlock.wrap(directed_cycle(length), BlockProperty.NO_S3_SUBDIVISION)


def load_building_block(text: str) -> BuildingBlock:
    """Edge-list file with a ``# property: ...`` header line."""
    tags = [c.split(":", 1)[1].strip() for c in file_comments(text) if c.startswith("property:")]
    if not tags:
        raise ParseError("building block file lacks a '# property:' header")
    try:
        claimed = BlockProperty(tags[0])
    except ValueError as exc:
        raise ParseError(f"unknown block property {tags[0]!r}") from exc
    return BuildingBlock.wrap(read_edge_list(text), claimed)


@dataclass(frozen=True)
class Layout:
    """Role map of a join's vertex ids."""

    groups: dict[str, tuple[int, ...]]

    def to_json_dict(self) -> dict:
        return {name: list(ids) for name, ids in self.groups.items()}


def _mirror_join(block: Digraph) -> tuple[list, int]:
    """Copy on A = 0..n-1, reversed copy on B = n..2n-1, all B-to-A arcs."""
    n = block.n
    arcs = list(block.arcs())
    arcs += [(n + v, n + u) for u, v in block.arcs()]
    arcs += [(n + i, j) for i in range(n) for j in range(n)]
    return arcs, 2 * n


def join_no_k4(block: BuildingBlock) -> tuple[Digraph, Layout]:
    """Host with arc-connectivity at least the block's out-degree level
    and no bioriented-4-clique subdivision.

    Mirror join of the block plus an apex joined by digons to everything;
    any 4-clique subdivision would have to leave a 3-clique subdivision,
    hence an even dicycle, inside one block copy.
    """
    if block.claimed is not BlockProperty.NO_EVEN_DICYCLE:
        raise PropertyMismatch("this join needs a block with no even dicycle")
    arcs, base = _mirror_join(block.graph)
    apex = base
    for w in range(base):
        arcs.append((apex, w))
        arcs.append((w, apex))
    n = block.graph.n
    layout = Layout(
        groups={
            "A": tuple(range(n)),
            "B": tuple(range(n, 2 * n)),
            "apex": (apex,),
        }
    )
    return build_digraph(base + 1, arcs), layout


def join_no_s4(block: BuildingBlock) -> tuple[Digraph, Layout]:
    """Host with arc-connectivity at least the block's out-degree level
    and no bioriented-4-star subdivision.

    Two mirror joins X and Y wired through fresh vertices u and v:
    u feeds X, X feeds v, Y feeds u, v feeds Y.  Every dicycle either
    stays inside one side or passes through both u and v, so a 4-star
    centre would force a 3-star subdivision into one block copy.
    """
    if block.claimed is not BlockProperty.NO_S3_SUBDIVISION:
        raise PropertyMismatch("this join needs a block with no 3-star subdivision")
    side_arcs, side = _mirror_join(block.graph)
    arcs = list(side_arcs)
    arcs += [(side + a, side + b) for a, b in side_arcs]
    u = 2 * side
    v = u + 1
    for x in range(side):
        arcs.append((u, x))
        arcs.append((x, v))
    for y in range(side, 2 * side):
        arcs.append((y, u))
        arcs.append((v, y))
    n = block.graph.n
    half = side
    layout = Layout(
        groups={
            "X": tuple(range(half)),
            "Y": tuple(range(half, 2 * half)),
            "X_A": tuple(range(n)),
            "X_B": tuple(range(n, 2 * n)),
            "Y_A": tuple(range(half, half + n)),
            "Y_B": tuple(range(half + n, half + 2 * n)),
            "u": (u,),
            "v": (v,),
        }
    )
    return build_digraph(v + 1, arcs), layout
