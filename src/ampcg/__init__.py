"""AMP chain graphs: essential graphs, strong edges, and causal effect bounds.

The package provides the combinatorial pipeline (validation, separation,
Markov equivalence, essential-graph construction, strong-edge labeling,
merge/split transformations, adjusting-set enumeration) together with
linear-Gaussian models for numeric effect bounds, and brute-force oracles
that verify every constructive algorithm at desk scale.
"""

__version__ = "0.1.0"

from .causal import (
    AdjustingSet,
    StNstPartition,
    adjusting_set,
    enumerate_adjusting_sets,
    locally_valid,
    st_nst,
)
from .equivalence import (
    EquivalenceClass,
    StrongEdgeSummary,
    enumerate_class,
    equivalent,
    essential_from_class,
    strong_oracle,
    triplexes,
)
from .essential import (
    EssentialGraphResult,
    MarkedGraph,
    apply_rules_R,
    double_block_chordless_cycles,
    essential_graph,
    unmarked_skeleton,
)
from .gaussian import (
    Covariance,
    Dataset,
    EffectBoundReport,
    LinearGaussianModel,
    adjusted_effect,
    bound_effect,
    linear_gaussian_model,
    population_covariance,
    random_model,
    sample,
    true_effect,
)
from .generate import all_chain_graphs, node_names, random_chain_graph, random_chordal_graph
from .graphs import (
    ChainGraph,
    ComponentPartition,
    chain_components,
    family,
    is_chordal,
    is_complete,
    is_simplicial,
    orient_by_mcs,
    pair,
    perfect_elimination_ending_with,
    validate_chain_graph,
)
from .io_text import (
    parse_graph,
    read_dataset,
    serialize_graph,
    to_dot,
    to_json,
    write_dataset,
)
from .separation import route_is_open, separated
from .strong import StrongLabeling, accelerator_labels, label_strong, strong_labeling
from .transform import (
    class_by_merge_split,
    feasible_merge_check,
    feasible_merges,
    maximally_oriented,
    maximally_oriented_members,
    merge,
    minimally_oriented,
    split,
)

__all__ = [name for name in dir() if not name.startswith("_")]
