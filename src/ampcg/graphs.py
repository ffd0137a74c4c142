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


Masks = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class NodeIndex:
    """Node positions in sorted order and one adjacency mask per node: bit j
    of adj[i] is set when nodes[i] ~ nodes[j]."""

    nodes: tuple[NodeId, ...]
    pos: dict[NodeId, int]
    adj: Masks


@dataclass(frozen=True, eq=False)
class GraphIndex(NodeIndex):
    """A chain graph's `NodeIndex`, plus the parents `pa[i]` (the j with
    nodes[j] -> nodes[i]) and the undirected neighbors `ne[i]` of each node."""

    pa: Masks
    ne: Masks


def _graph_index(
    nodes: Iterable[NodeId],
    directed: Iterable[tuple[NodeId, NodeId]],
    undirected: Iterable[tuple[NodeId, NodeId]],
) -> GraphIndex:
    """The index of an edge set whose ends all lie in `nodes`, in one pass
    over the edges."""
    names = tuple(sorted(nodes))
    pos = {n: i for i, n in enumerate(names)}
    adj = [0] * len(names)
    pa = [0] * len(names)
    ne = [0] * len(names)
    for u, v in directed:
        i, j = pos[u], pos[v]
        pa[j] |= 1 << i
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    for a, b in undirected:
        i, j = pos[a], pos[b]
        ne[i] |= 1 << j
        ne[j] |= 1 << i
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return GraphIndex(names, pos, tuple(adj), tuple(pa), tuple(ne))


@dataclass(frozen=True)
class ChainGraph:
    """A set of nodes with directed (tail, head) and undirected edges.

    Every instance is well formed and has no semidirected cycle.  The
    constructor rejects an edge end outside `nodes` (UnknownNodeError), a
    self-loop (SelfLoopError) and an undirected edge not stored in canonical
    `pair()` order (ValueError).  It then computes the chain components in
    topological order once, on the graph's `index`, keeps them for
    :func:`chain_components`, and raises SemidirectedCycleError when there
    is no such order.  Edges from outside the package should go through
    :func:`validate_chain_graph`, which also rejects bad names and duplicate
    pair-edges and canonicalizes the undirected pairs.
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
        if self._order is None:
            raise SemidirectedCycleError(
                _semidirected_cycle_witness(self.nodes, self.directed, self.undirected)
            )

    @classmethod
    def _indexed(
        cls,
        nodes: frozenset[NodeId],
        directed: frozenset[tuple[NodeId, NodeId]],
        undirected: frozenset[tuple[NodeId, NodeId]],
        index: GraphIndex,
    ) -> ChainGraph:
        """Construct with `index` as the graph's index, for a builder that
        made it in the same pass as the edges; every check still runs."""
        g = cls.__new__(cls)
        g.__dict__.update(nodes=nodes, directed=directed, undirected=undirected, index=index)
        g.__post_init__()
        return g

    @cached_property
    def index(self) -> GraphIndex:
        """Sorted positions with adjacency, parent and neighbor masks, built
        once per graph."""
        return _graph_index(self.nodes, self.directed, self.undirected)

    @cached_property
    def _order(self) -> list[Sequence[int]] | None:
        return _component_order(self.index)

    @cached_property
    def _partition(self) -> ComponentPartition:
        names = self.index.nodes
        return ComponentPartition(
            tuple(frozenset([names[i] for i in comp]) for comp in self._order)
        )

    @property
    def sorted_nodes(self) -> tuple[NodeId, ...]:
        return self.index.nodes

    @cached_property
    def skeleton(self) -> frozenset[tuple[NodeId, NodeId]]:
        """All edges as canonical unordered pairs."""
        return frozenset([(u, v) if u < v else (v, u) for u, v in self.directed]) | self.undirected

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


def _component_order(index: GraphIndex) -> list[Sequence[int]] | None:
    """Chain components, as node positions, in topological order; None on a
    semidirected cycle.

    A semidirected cycle either holds an arrow inside one undirected
    component or passes through a cycle of the component graph, which Kahn's
    algorithm then cannot exhaust.  Components are found from the nodes in
    sorted order, so a component's number is also its rank by least node,
    and ties between ready components go to the lower number.
    """
    pa, ne = index.pa, index.ne
    comp_of = [-1] * len(ne)
    members: list[Sequence[int]] = []
    intos: list[int] = []  # the parents of each component's members
    for start, nbrs in enumerate(ne):
        if comp_of[start] >= 0:
            continue
        c = len(members)
        comp_of[start] = c
        if not nbrs:
            members.append((start,))
            intos.append(pa[start])
            continue
        stack = [start]
        seen = 1 << start
        into = 0
        for v in stack:
            into |= pa[v]
            x = ne[v] & ~seen
            seen |= x
            while x:
                low = x & -x
                w = low.bit_length() - 1
                comp_of[w] = c
                stack.append(w)
                x ^= low
        if into & seen:
            return None
        members.append(stack)
        intos.append(into)
    succ: list[list[int]] = [[] for _ in members]
    indeg = [0] * len(members)
    for c, into in enumerate(intos):
        tails = set()
        while into:
            low = into & -into
            tails.add(comp_of[low.bit_length() - 1])
            into ^= low
        indeg[c] = len(tails)
        for p in tails:
            succ[p].append(c)
    heap = [c for c, d in enumerate(indeg) if not d]
    order = []
    while heap:
        c = heapq.heappop(heap)
        order.append(members[c])
        for d in succ[c]:
            indeg[d] -= 1
            if not indeg[d]:
                heapq.heappush(heap, d)
    return order if len(order) == len(members) else None


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


def _mcs_ranks(nbrs: Sequence[int], rng: random.Random | None = None) -> list[int]:
    """The visit rank of each position under maximum cardinality search over
    the neighbor masks `nbrs`; NotChordalError unless the visit order
    reverses a perfect elimination ordering.

    One bucket mask per weight holds the unvisited nodes of that weight.  A
    tie goes to the lowest position, or with `rng` to `rng.choice` of the
    tied positions in ascending order.  The check is Tarjan and Yannakakis's
    (SIAM J. Comput. 13, 1984): the neighbors visited before a node, but the
    one visited last, must all be neighbors of that one.
    """
    n = len(nbrs)
    weight = [0] * n
    last = [-1] * n  # the neighbor visited last, once one is
    rank = [0] * n
    buckets = [(1 << n) - 1]
    top = visited = 0
    for step in range(n):
        while not buckets[top]:
            top -= 1
        tied = buckets[top]
        bit = tied & -tied
        if rng is not None:
            choices = []
            while tied:
                low = tied & -tied
                choices.append(low.bit_length() - 1)
                tied ^= low
            bit = 1 << rng.choice(choices)
        buckets[top] ^= bit
        v = bit.bit_length() - 1
        rank[v] = step
        p = last[v]
        if p >= 0 and nbrs[v] & visited & ~nbrs[p] & ~(1 << p):
            raise NotChordalError("graph is not chordal")
        visited |= bit
        x = nbrs[v] & ~visited
        while x:
            low = x & -x
            w = low.bit_length() - 1
            x ^= low
            last[w] = v
            k = weight[w]
            buckets[k] ^= low
            weight[w] = k = k + 1
            if k == len(buckets):
                buckets.append(low)
            else:
                buckets[k] |= low
            if k > top:
                top = k
    return rank


def is_chordal(g: ChainGraph) -> bool:
    """Chordality test by maximum cardinality search on the neighbor masks."""
    _require_undirected(g)
    try:
        _mcs_ranks(g.index.ne)
    except NotChordalError:
        return False
    return True


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
    index = g.index
    rank, pos = _mcs_ranks(index.ne, rng), index.pos
    directed = frozenset(
        (a, b) if rank[pos[a]] < rank[pos[b]] else (b, a) for a, b in g.undirected
    )
    return ChainGraph(nodes=g.nodes, directed=directed, undirected=frozenset())
