"""AMP chain graphs: essential graphs, strong edges, and causal effect bounds.

The package provides the combinatorial pipeline (validation, separation,
Markov equivalence, essential-graph construction, strong-edge labeling,
merge/split transformations, adjusting-set enumeration) together with
linear-Gaussian models for numeric effect bounds, and brute-force oracles
that verify every constructive algorithm at desk scale.  The oracles live in
`ampcg.oracle` and the linear-Gaussian models, which need numpy, in
`ampcg.gaussian`; their names here load those modules on first use, so the
graph pipeline imports neither.
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
from .equivalence import equivalent, triplexes
from .essential import EssentialGraphResult, MarkedGraph, essential_graph
from .generate import node_names, random_chain_graph
from .graphs import (
    ChainGraph,
    ComponentPartition,
    chain_components,
    family,
    pair,
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
from .transform import feasible_merge_check, feasible_merges, maximally_oriented, merge, split

# the linear-Gaussian names, which `ampcg.gaussian` binds on first use below
_GAUSSIAN = (
    "LinearGaussianModel", "Covariance", "Dataset", "EffectBoundReport",
    "linear_gaussian_model", "random_model", "population_covariance", "sample",
    "true_effect", "adjusted_effect", "bound_effect",
)

__all__ = [
    # graphs, their text forms and generators
    "ChainGraph", "ComponentPartition", "validate_chain_graph", "chain_components",
    "family", "pair", "parse_graph", "serialize_graph", "to_dot", "to_json",
    "node_names", "random_chain_graph",
    # separation and Markov equivalence
    "separated", "route_is_open", "triplexes", "equivalent",
    # the essential graph and its strong edges
    "EssentialGraphResult", "MarkedGraph", "essential_graph",
    "StrongLabeling", "label_strong", "strong_labeling", "accelerator_labels",
    # merges, splits and a maximally oriented member
    "feasible_merge_check", "feasible_merges", "merge", "split", "maximally_oriented",
    # adjusting sets
    "AdjustingSet", "StNstPartition", "adjusting_set", "st_nst", "locally_valid",
    "enumerate_adjusting_sets",
    # linear-Gaussian models and effect bounds
    *_GAUSSIAN, "read_dataset", "write_dataset",
    # the brute-force oracles of `ampcg.oracle`, bound on first use below
    "EquivalenceClass", "StrongEdgeSummary", "enumerate_class", "essential_from_class",
    "strong_oracle", "class_by_merge_split", "minimally_oriented",
    "maximally_oriented_members",
]


def __getattr__(name: str):
    # the names of `__all__` not imported above are the gaussian ones and the
    # oracles: loading them here, not at import, keeps numpy and
    # `ampcg.oracle` off the graph pipeline's path
    if name in _GAUSSIAN:
        from . import gaussian as home
    elif name in __all__:
        from . import oracle as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
