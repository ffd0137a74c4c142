"""Chain graphs (mixed directed/undirected graphs without semidirected cycles).

All graph types are immutable values: operations elsewhere in the package
return new graphs instead of mutating, which makes oracle comparisons plain
equality checks.  A `ChainGraph` is its `GraphIndex` alone, and an index
compares by its nodes and masks, so two graphs with the same edges are
equal and hash alike however they were built; a `MarkedGraph`, its index
plus two mask tuples, compares by value the same way.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, NoReturn, Sequence

from .errors import (
    DuplicateEdgeError,
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


def _positions(masks: Sequence[int]) -> list[tuple[int, int]]:
    """Every (i, w) with bit w set in masks[i], in sorted order."""
    found = []
    for i, x in enumerate(masks):
        while x:
            low = x & -x
            found.append((i, low.bit_length() - 1))
            x ^= low
    return found


@dataclass(frozen=True)
class GraphIndex:
    """A chain graph's node positions in sorted order and three masks per
    node: bit j of adj[i] is set when nodes[i] ~ nodes[j], of pa[i] when
    nodes[j] -> nodes[i], and of ne[i] when nodes[i] -- nodes[j].

    Two indexes are equal, and hash alike, when their nodes, `pa` and `ne`
    agree; `pos` and `adj` follow from those and are not compared."""

    nodes: tuple[NodeId, ...]
    pos: dict[NodeId, int] = field(compare=False)
    adj: Masks = field(compare=False)
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


@dataclass(frozen=True, init=False)
class ChainGraph:
    """A set of nodes with directed (tail, head) and undirected edges.

    Every instance is well formed and has no semidirected cycle.  The graph
    is its `index` alone: `nodes`, `directed`, `undirected` and `skeleton`
    are name sets derived from the masks when first read, and equality and
    hashing are the index's.  The constructor builds the index from edge
    sets, checking them (:func:`_graph_index`); `_of` takes an index whose
    masks a builder set itself.  Either way the chain components are then
    computed in topological order once, kept for :func:`chain_components`,
    and SemidirectedCycleError is raised when there is no such order.
    Edges from outside the package should go through
    :func:`validate_chain_graph`, which also rejects bad names and
    canonicalizes the undirected pairs.
    """

    index: GraphIndex

    def __init__(
        self,
        nodes: Iterable[NodeId],
        directed: Iterable[tuple[NodeId, NodeId]],
        undirected: Iterable[tuple[NodeId, NodeId]],
    ) -> None:
        self._adopt(_graph_index(nodes, directed, undirected), None)

    @classmethod
    def _of(cls, index: GraphIndex, order: list[Sequence[int]] | None = None) -> ChainGraph:
        """The chain graph whose index is `index`, from a builder that set
        its masks itself; `order` is `_component_order(index)` when the
        builder has found it already."""
        g = cls.__new__(cls)
        g._adopt(index, order)
        return g

    def _adopt(self, index: GraphIndex, order: list[Sequence[int]] | None) -> None:
        """Hold `index`, with `order` (found when None) its chain components
        in topological order: the cycle test of every build."""
        if order is None:
            order = _component_order(index)
            if order is None:
                raise SemidirectedCycleError(_semidirected_cycle_witness(index))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_order", order)

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
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self.index.nodes)

    @cached_property
    def directed(self) -> frozenset[tuple[NodeId, NodeId]]:
        """The arrows as (tail, head) names."""
        names = self.index.nodes
        return frozenset((names[i], names[w]) for i, w in _positions(self.index.ch))

    @cached_property
    def undirected(self) -> frozenset[tuple[NodeId, NodeId]]:
        """The undirected edges as `pair()`-ordered names."""
        names = self.index.nodes
        return frozenset((names[i], names[w]) for i, w in _edges(self.index.ne))

    @cached_property
    def skeleton(self) -> frozenset[tuple[NodeId, NodeId]]:
        """All edges as `pair()`-ordered names."""
        names = self.index.nodes
        return frozenset((names[i], names[w]) for i, w in _edges(self.index.adj))

    def is_adjacent(self, u: NodeId, v: NodeId) -> bool:
        return pair(u, v) in self.skeleton

    def has_directed(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self.directed

    def has_undirected(self, u: NodeId, v: NodeId) -> bool:
        return pair(u, v) in self.undirected

    def __repr__(self) -> str:  # compact form, readable in test failures
        parts = [f"{u}->{v}" for u, v in sorted(self.directed)]
        parts += [f"{a}--{b}" for a, b in sorted(self.undirected)]
        parts += [n for n, a in zip(self.index.nodes, self.index.adj) if not a]
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


def _semidirected_cycle_witness(index: GraphIndex) -> list[NodeId]:
    """One semidirected cycle of an index that `_component_order` rejects.

    The first arrow u -> v, in sorted order, whose head reaches its tail by
    -> and -- steps, closed by a shortest route from v back to u
    (breadth-first, successors in sorted order).
    """
    succ = [c | n for c, n in zip(index.ch, index.ne)]
    for u, v in _positions(index.ch):
        prev = {v: v}
        queue = deque([v])
        while queue and u not in prev:
            cur = queue.popleft()
            x = succ[cur]
            while x:
                low = x & -x
                w = low.bit_length() - 1
                x ^= low
                if w not in prev:
                    prev[w] = cur
                    queue.append(w)
        if u in prev:
            path = [u]
            while path[-1] != v:
                path.append(prev[path[-1]])
            return [index.nodes[i] for i in (u, *reversed(path))]
    raise AssertionError("no semidirected cycle in a rejected index")


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
    return ChainGraph(node_set, directed, [pair(a, b) for a, b in undirected])


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
    undirected.  One pass over the edges sets the parent and neighbor
    masks; each edge is read once off `index.adj`, so the edge checks of
    `_graph_index` have nothing to catch and only the cycle test runs."""
    names, adj = index.nodes, index.adj
    pa = [0] * len(names)
    ne = [0] * len(names)
    for i, w in _edges(adj):
        low = 1 << w
        if loose[i] & low:
            u, v = (i, w) if rank[i] < rank[w] else (w, i)
        elif (out[i] ^ inn[i]) & low:
            u, v = (i, w) if out[i] & low else (w, i)
        else:
            ne[i] |= low
            ne[w] |= 1 << i
            continue
        pa[v] |= 1 << u
    return ChainGraph._of(GraphIndex(names, index.pos, adj, tuple(pa), tuple(ne)))
