"""Partitioning conflict graphs into 1-extendable classes.

A graph is 1-extendable when every vertex lies in some maximum
independent set; under saturated CSMA/CA that is exactly the condition
for no node to starve. This package decides 1-extendability, computes
the minimum number of classes in a partition into 1-extendable induced
subgraphs (with certificates), and evaluates exact per-vertex channel
access proportions.
"""

from .access import AccessProfile, access_proportion, starvation_set
from .errors import InputError, ResourceLimitError
from .extend import ExtReport, is_1ext_cograph, is_1ext_mw, is_1ext_oracle_report
from .genset import (
    GenSetInstance,
    GenSetSolution,
    binary_solution,
    from_solution,
    solve,
    to_instance,
)
from .graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    complete_multipartite,
    complete_sum,
    cycle_graph,
    disjoint_union,
    empty_graph,
    gen_hardness_gadget,
    gen_interval_extremal,
    gen_multipartite_extremal,
    induced_subgraph,
    path_graph,
    substitute,
)
from .independent_sets import (
    MisStats,
    alpha,
    enumerate_max_independent_sets,
    is_1ext_oracle,
    maximum_independent_set,
    mis_covered_vertices,
    mis_stats,
    weighted_alpha,
    weighted_is_1ext,
    weighted_profile,
)
from .moddecomp import (
    MDNode,
    MDTree,
    decompose,
    is_cograph,
    modular_width,
    module_alpha,
    reconstruct,
    verify_module,
    weighted_representative,
)
from .partition import (
    FeasibleTupleSet,
    Partition,
    chi_1ext,
    feasible_tuples_mw,
    greedy_sqrt_partition,
    log_partition_cograph,
    peel_partition,
    split_integers,
    tuple_join,
    tuple_sum,
    verify_partition,
)

__all__ = [
    "AccessProfile",
    "ExtReport",
    "FeasibleTupleSet",
    "GenSetInstance",
    "GenSetSolution",
    "Graph",
    "InputError",
    "MDNode",
    "MDTree",
    "MisStats",
    "Partition",
    "ResourceLimitError",
    "WeightedGraph",
    "access_proportion",
    "alpha",
    "binary_solution",
    "chi_1ext",
    "complete_graph",
    "complete_multipartite",
    "complete_sum",
    "cycle_graph",
    "decompose",
    "disjoint_union",
    "empty_graph",
    "enumerate_max_independent_sets",
    "feasible_tuples_mw",
    "from_solution",
    "gen_hardness_gadget",
    "gen_interval_extremal",
    "gen_multipartite_extremal",
    "greedy_sqrt_partition",
    "induced_subgraph",
    "is_1ext_cograph",
    "is_1ext_mw",
    "is_1ext_oracle",
    "is_1ext_oracle_report",
    "is_cograph",
    "log_partition_cograph",
    "maximum_independent_set",
    "mis_covered_vertices",
    "mis_stats",
    "modular_width",
    "module_alpha",
    "path_graph",
    "peel_partition",
    "reconstruct",
    "solve",
    "split_integers",
    "starvation_set",
    "substitute",
    "to_instance",
    "tuple_join",
    "tuple_sum",
    "verify_module",
    "verify_partition",
    "weighted_alpha",
    "weighted_is_1ext",
    "weighted_profile",
    "weighted_representative",
]

__version__ = "0.1.0"
