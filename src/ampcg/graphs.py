"""Chain graphs (mixed directed/undirected graphs without semidirected cycles).

All graph types are immutable values: operations elsewhere in the package
return new graphs instead of mutating, which makes oracle comparisons plain
equality checks.
"""

from __future__ import annotations

import heapq
import random
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Literal, Sequence

from .errors import (
    DuplicateEdgeError,
    NotChordalError,
    SelfLoopError,
    SemidirectedCycleError,
    TailNotCompleteError,
    UnknownNodeError,
)

NodeId = str
Relation = Literal["pa", "ch", "ne", "ad", "de"]

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


def is_valid_name(name: str) -> bool:
    """Is `name` a non-empty run of ASCII letters, digits and underscores?"""
    return _NAME.match(name) is not None


def pair(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    """Canonical (sorted) key for the unordered node pair {u, v}."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class ChainGraph:
    """A set of nodes with directed (tail, head) and undirected edges.

    Every instance is well formed and has no semidirected cycle.  The
    constructor rejects an edge end outside `nodes` (UnknownNodeError), a
    self-loop (SelfLoopError) and an undirected edge not stored in canonical
    `pair()` order (ValueError).  It then computes the chain components in
    topological order once, keeps them for :func:`chain_components`, and
    raises SemidirectedCycleError when there is no such order.  Edges from
    outside the package should go through :func:`validate_chain_graph`, which
    also rejects bad names and duplicate pair-edges and canonicalizes the
    undirected pairs.
    """

    nodes: frozenset[NodeId]
    directed: frozenset[tuple[NodeId, NodeId]]
    undirected: frozenset[tuple[NodeId, NodeId]]

    def __post_init__(self) -> None:
        nodes = self.nodes
        for u, v in chain(self.directed, self.undirected):
            if u not in nodes or v not in nodes:
                raise UnknownNodeError(f"unknown node {u if u not in nodes else v!r}")
            if u == v:
                raise SelfLoopError(f"self-loop at {u!r}")
        for a, b in self.undirected:
            if a > b:
                raise ValueError(f"undirected edge ({a!r}, {b!r}) is not in pair() order")
        if self._partition is None:
            raise SemidirectedCycleError(
                _semidirected_cycle_witness(self.nodes, self.directed, self.undirected)
            )

    @cached_property
    def _partition(self) -> ComponentPartition | None:
        order = _component_order(self.nodes, self.directed, self.undirected)
        return None if order is None else ComponentPartition(tuple(order))

    @cached_property
    def sorted_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def skeleton(self) -> frozenset[tuple[NodeId, NodeId]]:
        """All edges as canonical unordered pairs."""
        return frozenset(pair(u, v) for u, v in self.directed) | self.undirected

    @cached_property
    def adjacency(self) -> dict[NodeId, frozenset[NodeId]]:
        adj: dict[NodeId, set[NodeId]] = {n: set() for n in self.nodes}
        for a, b in self.skeleton:
            adj[a].add(b)
            adj[b].add(a)
        return {n: frozenset(s) for n, s in adj.items()}

    @cached_property
    def parent_map(self) -> dict[NodeId, frozenset[NodeId]]:
        out: dict[NodeId, set[NodeId]] = {n: set() for n in self.nodes}
        for u, v in self.directed:
            out[v].add(u)
        return {n: frozenset(s) for n, s in out.items()}

    @cached_property
    def child_map(self) -> dict[NodeId, frozenset[NodeId]]:
        out: dict[NodeId, set[NodeId]] = {n: set() for n in self.nodes}
        for u, v in self.directed:
            out[u].add(v)
        return {n: frozenset(s) for n, s in out.items()}

    @cached_property
    def neighbor_map(self) -> dict[NodeId, frozenset[NodeId]]:
        out: dict[NodeId, set[NodeId]] = {n: set() for n in self.nodes}
        for a, b in self.undirected:
            out[a].add(b)
            out[b].add(a)
        return {n: frozenset(s) for n, s in out.items()}

    def is_adjacent(self, u: NodeId, v: NodeId) -> bool:
        return pair(u, v) in self.skeleton

    def has_directed(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self.directed

    def has_undirected(self, u: NodeId, v: NodeId) -> bool:
        return pair(u, v) in self.undirected

    def __repr__(self) -> str:  # compact form, readable in test failures
        parts = [f"{u}->{v}" for u, v in sorted(self.directed)]
        parts += [f"{a}--{b}" for a, b in sorted(self.undirected)]
        isolated = sorted(self.nodes - {n for e in self.skeleton for n in e})
        parts += isolated
        return "ChainGraph(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class ComponentPartition:
    """Chain components in one topological order.

    Every component is connected through undirected edges, and for every
    directed edge the tail's component strictly precedes the head's.
    """

    components: tuple[frozenset[NodeId], ...]

    @cached_property
    def component_of(self) -> dict[NodeId, frozenset[NodeId]]:
        return {n: comp for comp in self.components for n in comp}

    @cached_property
    def index_of(self) -> dict[NodeId, int]:
        return {n: i for i, comp in enumerate(self.components) for n in comp}


def _check_nodes(nodes: frozenset[NodeId], referenced: Iterable[NodeId]) -> None:
    for n in referenced:
        if n not in nodes:
            raise UnknownNodeError(f"unknown node {n!r}")


def _undirected_components(
    nodes: Iterable[NodeId], undirected: Iterable[tuple[NodeId, NodeId]]
) -> list[frozenset[NodeId]]:
    """Connected components of the undirected subgraph, sorted by least node."""
    nbr: dict[NodeId, set[NodeId]] = {n: set() for n in nodes}
    for a, b in undirected:
        nbr[a].add(b)
        nbr[b].add(a)
    seen: set[NodeId] = set()
    comps = []
    for start in sorted(nbr):
        if start in seen:
            continue
        stack, comp = [start], {start}
        seen.add(start)
        while stack:
            cur = stack.pop()
            for w in nbr[cur]:
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def _component_order(
    nodes: Iterable[NodeId],
    directed: Iterable[tuple[NodeId, NodeId]],
    undirected: Iterable[tuple[NodeId, NodeId]],
) -> list[frozenset[NodeId]] | None:
    """Chain components in topological order, or None on a semidirected cycle.

    A semidirected cycle either holds an arrow inside one undirected
    component or passes through a cycle of the component graph, which Kahn's
    algorithm then cannot exhaust.  Ties between ready components are broken
    by their least node name.
    """
    comps = _undirected_components(nodes, undirected)
    comp_index = {n: i for i, comp in enumerate(comps) for n in comp}
    succ: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    indeg = {i: 0 for i in range(len(comps))}
    for u, v in directed:
        cu, cv = comp_index[u], comp_index[v]
        if cu == cv:
            return None
        if cv not in succ[cu]:
            succ[cu].add(cv)
            indeg[cv] += 1
    heap = [(min(comps[i]), i) for i in indeg if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[frozenset[NodeId]] = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(comps[i])
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (min(comps[j]), j))
    return order if len(order) == len(comps) else None


def _semidirected_cycle_witness(
    nodes: frozenset[NodeId],
    directed: Iterable[tuple[NodeId, NodeId]],
    undirected: Iterable[tuple[NodeId, NodeId]],
) -> list[NodeId] | None:
    """One semidirected cycle, or None when the edges admit none.

    The first arrow u -> v, in sorted order, whose head reaches its tail by
    -> and -- steps, closed by a shortest route from v back to u
    (breadth-first, successors in sorted order).
    """
    succ: dict[NodeId, set[NodeId]] = {n: set() for n in nodes}
    for u, v in directed:
        succ[u].add(v)
    for a, b in undirected:
        succ[a].add(b)
        succ[b].add(a)
    for u, v in sorted(directed):
        prev: dict[NodeId, NodeId] = {v: v}
        queue = deque([v])
        while queue and u not in prev:
            cur = queue.popleft()
            for w in sorted(succ[cur]):
                if w not in prev:
                    prev[w] = cur
                    queue.append(w)
        if u in prev:
            path = [u]
            while path[-1] != v:
                path.append(prev[path[-1]])
            return [u, *reversed(path)]
    return None


def validate_chain_graph(
    nodes: Iterable[NodeId],
    directed: Iterable[tuple[NodeId, NodeId]] = (),
    undirected: Iterable[tuple[NodeId, NodeId]] = (),
) -> ChainGraph:
    """Build a chain graph, rejecting malformed or cyclic edge sets.

    Raises UnknownNodeError on a bad name, DuplicateEdgeError, or what the
    ChainGraph constructor raises: UnknownNodeError, SelfLoopError or
    SemidirectedCycleError (with one witness cycle attached).
    """
    node_set = frozenset(nodes)
    for n in node_set:
        if not is_valid_name(n):
            raise UnknownNodeError(f"invalid node name {n!r}")
    directed = list(directed)
    undirected = list(undirected)
    seen_pairs: set[tuple[NodeId, NodeId]] = set()
    for u, v in directed + undirected:
        key = pair(u, v)
        if key in seen_pairs:
            raise DuplicateEdgeError(f"more than one edge between {key[0]!r} and {key[1]!r}")
        seen_pairs.add(key)
    return ChainGraph(
        node_set, frozenset(directed), frozenset(pair(a, b) for a, b in undirected)
    )


def family(g: ChainGraph, xs: Iterable[NodeId], relation: Relation) -> frozenset[NodeId]:
    """Parents, children, neighbors, adjacents or strict descendants of a set.

    Descendants follow directed paths of length at least one, so in a valid
    chain graph `family(g, xs, "de")` never meets `xs` itself.
    """
    xset = frozenset(xs)
    _check_nodes(g.nodes, xset)
    if relation == "pa":
        return frozenset(p for x in xset for p in g.parent_map[x])
    if relation == "ch":
        return frozenset(c for x in xset for c in g.child_map[x])
    if relation == "ne":
        return frozenset(n for x in xset for n in g.neighbor_map[x])
    if relation == "ad":
        return frozenset(a for x in xset for a in g.adjacency[x])
    if relation == "de":
        out: set[NodeId] = set()
        frontier = [c for x in xset for c in g.child_map[x]]
        while frontier:
            cur = frontier.pop()
            if cur in out:
                continue
            out.add(cur)
            frontier.extend(g.child_map[cur])
        return frozenset(out)
    raise ValueError(f"unknown relation {relation!r}")


def chain_components(g: ChainGraph) -> ComponentPartition:
    """Chain components in a deterministic topological order, as computed
    when g was built.

    Ties between ready components are broken by their least node name.
    """
    return g._partition


def is_complete(g: ChainGraph, nodes: Iterable[NodeId]) -> bool:
    """True when every pair in the set is joined by an undirected edge."""
    ns = sorted(frozenset(nodes))
    _check_nodes(g.nodes, ns)
    return all(g.has_undirected(a, b) for a, b in combinations(ns, 2))


def is_simplicial(g: ChainGraph, v: NodeId) -> bool:
    """True when the neighbors of v form a complete set."""
    _check_nodes(g.nodes, (v,))
    return is_complete(g, g.neighbor_map[v])


def _require_undirected(g: ChainGraph) -> None:
    if g.directed:
        raise ValueError("operation requires a purely undirected graph")


def _simplicial_in(adj: dict[NodeId, set[NodeId]], v: NodeId) -> bool:
    nbrs = sorted(adj[v])
    return all(b in adj[a] for a, b in combinations(nbrs, 2))


def _eliminate(
    g: ChainGraph, keep: frozenset[NodeId] = frozenset()
) -> list[NodeId] | None:
    """Remove simplicial nodes outside `keep`, least name first, until only
    `keep` is left; the removal order, or None when no node qualifies."""
    adj = {n: set(s) for n, s in g.adjacency.items()}
    order: list[NodeId] = []
    while len(adj) > len(keep):
        v = next((n for n in sorted(adj.keys() - keep) if _simplicial_in(adj, n)), None)
        if v is None:
            return None
        order.append(v)
        for w in adj.pop(v):
            adj[w].discard(v)
    return order


def is_chordal(g: ChainGraph) -> bool:
    """Chordality test by repeated simplicial-node elimination."""
    _require_undirected(g)
    return _eliminate(g) is not None


def perfect_elimination_ending_with(
    g: ChainGraph, tail: Sequence[NodeId]
) -> tuple[NodeId, ...]:
    """A perfect elimination ordering whose final elements are exactly `tail`.

    Works by repeatedly eliminating a simplicial node outside the tail; for a
    chordal graph with a complete tail such a node always exists because a
    non-complete chordal graph has two non-adjacent simplicial nodes, at most
    one of which can sit inside the complete tail.
    """
    _require_undirected(g)
    tail = tuple(tail)
    _check_nodes(g.nodes, tail)
    if len(set(tail)) != len(tail):
        raise TailNotCompleteError("tail contains repeated nodes")
    if not is_chordal(g):
        raise NotChordalError("graph is not chordal")
    if not is_complete(g, tail):
        raise TailNotCompleteError(f"tail {sorted(tail)} is not complete")
    return (*_eliminate(g, frozenset(tail)), *tail)


def orient_by_mcs(g: ChainGraph, rng: random.Random | None = None) -> ChainGraph:
    """Acyclic, triplex-free orientation of a chordal undirected graph.

    Nodes are visited by maximum cardinality search and every edge is oriented
    away from the node visited earlier.  Ties are broken lexicographically, or
    uniformly at random when `rng` is given (any node can come first, so any
    single edge can receive either direction across seeds).
    """
    _require_undirected(g)
    if not is_chordal(g):
        raise NotChordalError("graph is not chordal")
    weight = {n: 0 for n in g.nodes}
    unmarked = set(g.nodes)
    position: dict[NodeId, int] = {}
    step = 0
    while unmarked:
        best = max(weight[n] for n in unmarked)
        candidates = sorted(n for n in unmarked if weight[n] == best)
        chosen = candidates[0] if rng is None else rng.choice(candidates)
        position[chosen] = step
        step += 1
        unmarked.discard(chosen)
        for w in g.adjacency[chosen]:
            if w in unmarked:
                weight[w] += 1
    directed = frozenset(
        (a, b) if position[a] < position[b] else (b, a) for a, b in g.undirected
    )
    return ChainGraph(nodes=g.nodes, directed=directed, undirected=frozenset())
