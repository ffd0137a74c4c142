"""Exhaustive and random chain-graph generators used by tests and demos."""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Sequence

from .errors import SemidirectedCycleError
from .graphs import ChainGraph, NodeId, _component_order, _graph_index

#: per-pair states for exhaustive generation
_NONE, _FWD, _REV, _UND = range(4)


def all_chain_graphs(nodes: Sequence[NodeId]) -> list[ChainGraph]:
    """Every valid chain graph over the labeled nodes.

    Generated from the four states (absent / -> / <- / --) per unordered pair,
    filtered for semidirected cycles.  Exponential; intended for <= 4 nodes.
    """
    nodes = tuple(sorted(nodes))
    pairs = list(combinations(nodes, 2))
    node_set = frozenset(nodes)
    out: list[ChainGraph] = []
    for assignment in product(range(4), repeat=len(pairs)):
        directed = []
        undirected = []
        for (a, b), s in zip(pairs, assignment):
            if s == _FWD:
                directed.append((a, b))
            elif s == _REV:
                directed.append((b, a))
            elif s == _UND:
                undirected.append((a, b))
        try:
            out.append(ChainGraph(node_set, frozenset(directed), frozenset(undirected)))
        except SemidirectedCycleError:
            pass
    return out


def random_chain_graph(
    rng: random.Random,
    nodes: Sequence[NodeId],
    p_undirected: float = 0.18,
    p_directed: float = 0.22,
    max_edges: int | None = None,
) -> ChainGraph:
    """A random valid chain graph, built constructively.

    Undirected edges are sampled first; their connected components are put in
    a random order and directed edges are then sampled only from earlier to
    later components, so no semidirected cycle can arise.  Every chain graph
    over the nodes has positive probability.
    """
    nodes = tuple(sorted(nodes))
    node_set = frozenset(nodes)
    while True:
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
        if max_edges is not None and len(directed) + len(undirected) > max_edges:
            continue
        return ChainGraph(
            nodes=node_set, directed=frozenset(directed), undirected=undirected
        )


def random_chordal_graph(
    rng: random.Random, nodes: Sequence[NodeId], p_edge: float = 0.35
) -> ChainGraph:
    """A random chordal undirected graph via elimination fill-in."""
    nodes = list(nodes)
    rng.shuffle(nodes)
    adj: dict[NodeId, set[NodeId]] = {n: set() for n in nodes}
    for a, b in combinations(sorted(nodes), 2):
        if rng.random() < p_edge:
            adj[a].add(b)
            adj[b].add(a)
    position = {n: i for i, n in enumerate(nodes)}
    for v in nodes:  # triangulate along the elimination order
        later = sorted(w for w in adj[v] if position[w] > position[v])
        for a, b in combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
    undirected = frozenset(
        (a, b) for a, b in combinations(sorted(nodes), 2) if b in adj[a]
    )
    return ChainGraph(
        nodes=frozenset(nodes), directed=frozenset(), undirected=undirected
    )


def node_names(count: int) -> tuple[NodeId, ...]:
    """Deterministic node labels V0, V1, ... for generated graphs."""
    return tuple(f"V{i}" for i in range(count))
