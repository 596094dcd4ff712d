"""Certificate-producing search for digraph subdivisions.

Constructive finders for subdivisions of oriented cycles (the
alternating cycle ``C_{a,b}``, two-block cycles ``C(k1, k2)``, the
bioriented triangle minus an arc) in digraphs of large minimum
out-degree, together with an exhaustive backtracking oracle, Menger
disjoint-path primitives, randomized girth reduction, arc-connected
counterexample constructions, and a desk-scale verification harness.
Every finder emits an explicit certificate that the oracle-side
validator checks independently.
"""

from .cab import (
    embed_gadget_i_or_ii,
    embed_gadget_iii,
    find_cab,
    find_oriented_cycle_subdivision,
    long_dicycle,
    reduce_girth,
)
from .constructions import (
    BlockProperty,
    BuildingBlock,
    Layout,
    join_no_k4,
    join_no_s4,
    load_building_block,
)
from .core import (
    Digraph,
    INFINITE,
    bioriented_clique,
    bioriented_path,
    bioriented_star,
    build_digraph,
    directed_cycle,
    directed_girth,
    directed_path,
    greedy_maximal_path,
    k3_minus_e,
    min_out_degree,
    pattern_cab,
    pattern_two_block,
    read_edge_list,
    strong_components,
    to_dot,
    transitive_tournament,
    write_edge_list,
)
from .gadgets import (
    AlternatingPath,
    CabParams,
    Chain,
    Condition1,
    Condition2,
    Gadget,
    GadgetKind,
    base_alt_path,
    chain_alt_path,
    close_chain,
    extended_exit_path,
    gadget_intersection_path,
    join_alt_paths,
    reach_pq,
    validate_alternating_path,
    validate_chain,
    validate_gadget,
)
from .k3e import find_k3e
from .mader import MaderReport, enumerate_digraphs, lower_witness, sample_digraph, verify_upper
from .menger import FanOrCut, PathsOrCut, fan_to_set, strong_arc_connectivity, vertex_disjoint_paths
from .oracle import (
    ContractionRecord,
    SearchBudget,
    SubdivisionCertificate,
    ValidationReport,
    contains_subdivision,
    has_even_dicycle,
    require_valid,
    validate_certificate,
)
from .outcome import NotFound
from .two_block import find_two_block, fork

__all__ = [name for name in dir() if not name.startswith("_")]
