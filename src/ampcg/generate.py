"""Random chain graphs and generated node names, used by tests and demos."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

from .graphs import ChainGraph, NodeId, _component_order, _graph_index


def random_chain_graph(
    rng: random.Random,
    nodes: Sequence[NodeId],
    p_undirected: float = 0.18,
    p_directed: float = 0.22,
) -> ChainGraph:
    """A random valid chain graph, built constructively.

    Undirected edges are sampled first; their connected components are put in
    a random order and directed edges are then sampled only from earlier to
    later components, so no semidirected cycle can arise.  Every chain graph
    over the nodes has positive probability.
    """
    nodes = tuple(sorted(nodes))
    undirected = frozenset(
        (a, b) for a, b in combinations(nodes, 2) if rng.random() < p_undirected
    )
    # with no arrows, the chain components come in least-node order
    comps = _component_order(_graph_index(nodes, (), undirected))
    rng.shuffle(comps)
    rank = {nodes[v]: i for i, comp in enumerate(comps) for v in comp}
    directed = []
    for a, b in combinations(nodes, 2):
        if rank[a] == rank[b]:
            continue
        if rng.random() < p_directed:
            directed.append((a, b) if rank[a] < rank[b] else (b, a))
    return ChainGraph(frozenset(nodes), frozenset(directed), undirected)


def node_names(count: int) -> tuple[NodeId, ...]:
    """Deterministic node labels V0, V1, ... for generated graphs."""
    return tuple(f"V{i}" for i in range(count))
