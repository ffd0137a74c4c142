"""Chain graphs (mixed directed/undirected graphs without semidirected cycles).

All graph types are immutable values: operations elsewhere in the package
return new graphs instead of mutating, which makes oracle comparisons plain
equality checks.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, NoReturn, Sequence

from .errors import (
    DuplicateEdgeError,
    InvariantViolationError,
    NotChordalError,
    SelfLoopError,
    SemidirectedCycleError,
    UnknownNodeError,
)

NodeId = str
Relation = Literal["pa", "ch", "ne", "ad", "de"]


def is_valid_name(name: str) -> bool:
    """Is `name` a non-empty run of ASCII letters, digits and underscores?
    (Two string methods, about twice as fast as a regular expression.)"""
    return name.isascii() and name.replace("_", "a").isalnum()


def pair(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    """Canonical (sorted) key for the unordered node pair {u, v}."""
    return (u, v) if u <= v else (v, u)


Masks = tuple[int, ...]


def _edges(masks: Sequence[int]) -> list[tuple[int, int]]:
    """Every (i, w) with i < w and bit w set in masks[i]: each edge of
    symmetric masks once, in sorted order."""
    found = []
    for i, x in enumerate(masks):
        x = x >> (i + 1) << (i + 1)
        while x:
            low = x & -x
            found.append((i, low.bit_length() - 1))
            x ^= low
    return found


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """A chain graph's node positions in sorted order and three masks per
    node: bit j of adj[i] is set when nodes[i] ~ nodes[j], of pa[i] when
    nodes[j] -> nodes[i], and of ne[i] when nodes[i] -- nodes[j]."""

    nodes: tuple[NodeId, ...]
    pos: dict[NodeId, int]
    adj: Masks
    pa: Masks
    ne: Masks

    def mask_of(self, names: Iterable[NodeId]) -> int:
        """The mask of the positions of `names`, which must all be nodes."""
        pos = self.pos
        mask = 0
        for n in names:
            mask |= 1 << pos[n]
        return mask

    def names_of(self, mask: int) -> frozenset[NodeId]:
        """The nodes at the positions set in `mask`."""
        names = self.nodes
        found = []
        while mask:
            low = mask & -mask
            found.append(names[low.bit_length() - 1])
            mask ^= low
        return frozenset(found)

    @cached_property
    def ch(self) -> Masks:
        """The children of each node: the adjacent nodes that are neither
        parents nor undirected neighbors."""
        return tuple(a & ~p & ~n for a, p, n in zip(self.adj, self.pa, self.ne))


def _step(step: Sequence[int], frontier: int) -> int:
    """The union of the step masks of the nodes in `frontier`."""
    reached = 0
    while frontier:
        low = frontier & -frontier
        reached |= step[low.bit_length() - 1]
        frontier ^= low
    return reached


def _reach(step: Sequence[int], seen: int) -> int:
    """The nodes reached from the mask `seen` along the step masks."""
    frontier = seen
    while frontier:
        frontier = _step(step, frontier) & ~seen
        seen |= frontier
    return seen


def _graph_index(
    nodes: Iterable[NodeId],
    directed: Iterable[tuple[NodeId, NodeId]],
    undirected: Iterable[tuple[NodeId, NodeId]],
) -> GraphIndex:
    """The index of an edge list over `nodes`, checked in the one pass that
    sets each edge's bits: the first faulty edge, directed ones first,
    raises what `_edge_fault` says."""
    names = tuple(sorted(nodes))
    pos = {n: i for i, n in enumerate(names)}
    adj = [0] * len(names)
    pa = [0] * len(names)
    ne = [0] * len(names)
    for u, v in directed:
        i, j = pos.get(u), pos.get(v)
        if i is None or j is None or i == j or adj[i] >> j & 1:
            _edge_fault(pos, u, v, False)
        pa[j] |= 1 << i
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    for u, v in undirected:
        i, j = pos.get(u), pos.get(v)
        if i is None or j is None or i >= j or adj[i] >> j & 1:
            _edge_fault(pos, u, v, True)
        ne[i] |= 1 << j
        ne[j] |= 1 << i
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return GraphIndex(names, pos, tuple(adj), tuple(pa), tuple(ne))


def _edge_fault(pos: dict[NodeId, int], u: NodeId, v: NodeId, undirected: bool) -> NoReturn:
    """Raise for an edge u, v that `_graph_index` rejects: an end outside
    `pos`, a loop, an undirected edge out of `pair()` order, or a doubled pair."""
    if u not in pos or v not in pos:
        raise UnknownNodeError(f"unknown node {u if u not in pos else v!r}")
    if u == v:
        raise SelfLoopError(f"self-loop at {u!r}")
    if undirected and u > v:
        raise ValueError(f"undirected edge ({u!r}, {v!r}) is not in pair() order")
    a, b = pair(u, v)
    raise DuplicateEdgeError(f"more than one edge between {a!r} and {b!r}")


@dataclass(frozen=True)
class ChainGraph:
    """A set of nodes with directed (tail, head) and undirected edges.

    Every instance is well formed and has no semidirected cycle.  Building
    the graph's `index` checks the edges (:func:`_graph_index`); the
    constructor then computes the chain components in topological order
    once, on that index, keeps them for :func:`chain_components`, and raises
    SemidirectedCycleError when there is no such order.  Edges from outside
    the package should go through :func:`validate_chain_graph`, which also
    rejects bad names and canonicalizes the undirected pairs.
    """

    nodes: frozenset[NodeId]
    directed: frozenset[tuple[NodeId, NodeId]]
    undirected: frozenset[tuple[NodeId, NodeId]]

    def __post_init__(self) -> None:
        if self._order is None:
            cycle = _semidirected_cycle_witness(self.nodes, self.directed, self.undirected)
            if cycle is None:
                raise InvariantViolationError(_index_mismatch(self))
            raise SemidirectedCycleError(cycle)

    @classmethod
    def _indexed(
        cls,
        nodes: frozenset[NodeId],
        directed: frozenset[tuple[NodeId, NodeId]],
        undirected: frozenset[tuple[NodeId, NodeId]],
        index: GraphIndex,
    ) -> ChainGraph:
        """Construct with `index` as the graph's index, made in the pass
        that built the edges: `_graph_index` checks them as it goes, and
        `_oriented` reads them off a skeleton.  Only the cycle test runs."""
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


def _index_mismatch(g: ChainGraph) -> str:
    """Name the first mask of `g.index` that disagrees with g's edges: an
    index handed to `ChainGraph._indexed` can reject acyclic edges."""
    given, built = g.index, _graph_index(g.nodes, g.directed, g.undirected)
    if given.nodes != built.nodes:
        return "index nodes disagree with the graph's nodes"
    for field in ("adj", "pa", "ne"):
        for name, x, y in zip(built.nodes, getattr(given, field), getattr(built, field)):
            if x != y:
                return f"index mask {field}[{name!r}] disagrees with the edges"
    return "index disagrees with the edges"


def _check_nodes(nodes: frozenset[NodeId], referenced: Iterable[NodeId]) -> None:
    for n in referenced:
        if n not in nodes:
            raise UnknownNodeError(f"unknown node {n!r}")


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

    Raises UnknownNodeError on a bad name; then, with the undirected pairs
    canonicalized, what `_graph_index` raises at the first faulty edge in
    list order; then SemidirectedCycleError, with one witness cycle attached.
    """
    node_set = frozenset(nodes)
    for n in node_set:
        if not is_valid_name(n):
            raise UnknownNodeError(f"invalid node name {n!r}")
    directed = list(directed)
    undirected = [pair(a, b) for a, b in undirected]
    index = _graph_index(node_set, directed, undirected)
    return ChainGraph._indexed(node_set, frozenset(directed), frozenset(undirected), index)


def family(g: ChainGraph, xs: Iterable[NodeId], relation: Relation) -> frozenset[NodeId]:
    """Parents, children, neighbors, adjacents or strict descendants of a set.

    Descendants follow directed paths of length at least one, so in a valid
    chain graph `family(g, xs, "de")` never meets `xs` itself.
    """
    xset = frozenset(xs)
    _check_nodes(g.nodes, xset)
    index = g.index
    x = index.mask_of(xset)
    if relation == "pa":
        step = index.pa
    elif relation == "ch":
        step = index.ch
    elif relation == "ne":
        step = index.ne
    elif relation == "ad":
        step = index.adj
    elif relation == "de":
        return index.names_of(_reach(index.ch, _step(index.ch, x)))
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return index.names_of(_step(step, x))


def chain_components(g: ChainGraph) -> ComponentPartition:
    """Chain components in a deterministic topological order, as computed
    when g was built.

    Ties between ready components are broken by their least node name.
    """
    return g._partition


def _is_clique(ne: Masks, x: int) -> bool:
    """Is every pair of nodes in the mask `x` joined by an undirected edge?"""
    y = x
    while y:
        low = y & -y
        if x & ~ne[low.bit_length() - 1] & ~low:
            return False
        y ^= low
    return True


def _mcs_ranks(
    nbrs: Sequence[int], rng: random.Random | None = None, first: Sequence[int] = ()
) -> list[int]:
    """The visit rank of each position under maximum cardinality search over
    the neighbor masks `nbrs`; NotChordalError unless the visit order
    reverses a perfect elimination ordering.

    One bucket mask per weight holds the unvisited nodes of that weight.  A
    tie goes to the lowest position, or with `rng` to `rng.choice` of the
    tied positions in ascending order.  The check is Tarjan and Yannakakis's
    (SIAM J. Comput. 13, 1984): the neighbors visited before a node, but the
    one visited last, must all be neighbors of that one.

    The clique `first` is visited first, in order.  This is still a maximum
    cardinality search: at step j < len(first), first[j] has all j visited
    nodes as neighbors, and no node has more.  So on a chordal graph the
    reversed visit order is a perfect elimination ordering ending with
    reversed(first) (Blair and Peyton 1993: any clique can close one).  A
    prefix that is no clique is no such prefix; the check may then misfire.
    """
    n = len(nbrs)
    weight = [0] * n
    last = [-1] * n  # the neighbor visited last, once one is
    rank = [0] * n
    buckets = [(1 << n) - 1]
    top = visited = 0
    for step in range(n):
        if step < len(first):
            bit = 1 << first[step]
        else:
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
        v = bit.bit_length() - 1
        buckets[weight[v]] ^= bit
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


def _oriented(
    index: GraphIndex,
    out: Sequence[int],
    inn: Sequence[int],
    loose: Sequence[int],
    rank: Sequence[int],
) -> ChainGraph:
    """The chain graph on the skeleton `index.adj` read off end marks: an
    edge in the masks `loose` points away from its end of lower `rank`, an
    edge blocked at one end only (in `out`, the w with i ~ w blocked at i;
    `inn`, the same seen from w) points out of that end, any other edge is
    undirected.  One pass over the edges builds the graph and its index.
    Each edge is read once off `index.adj`, so the edge checks of
    `_graph_index` cannot fire; the constructor runs only its cycle test."""
    names, adj = index.nodes, index.adj
    pa = [0] * len(names)
    ne = [0] * len(names)
    directed = []
    undirected = []
    for i, w in _edges(adj):
        low = 1 << w
        if loose[i] & low:
            u, v = (i, w) if rank[i] < rank[w] else (w, i)
        elif (out[i] ^ inn[i]) & low:
            u, v = (i, w) if out[i] & low else (w, i)
        else:
            ne[i] |= low
            ne[w] |= 1 << i
            undirected.append((names[i], names[w]))
            continue
        pa[v] |= 1 << u
        directed.append((names[u], names[v]))
    return ChainGraph._indexed(
        frozenset(names),
        frozenset(directed),
        frozenset(undirected),
        GraphIndex(names, index.pos, adj, tuple(pa), tuple(ne)),
    )
