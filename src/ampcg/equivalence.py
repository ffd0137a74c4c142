"""Triplexes, Markov equivalence, and brute-force class enumeration.

This module holds the one triplex test: `_is_triplex` on the two edge marks
at a middle node, `_flanks` on the nodes around it.  Two chain graphs are
Markov equivalent exactly when they share adjacencies and triplexes, so the
brute-force oracle enumerates orientation assignments of a skeleton and
keeps the valid chain graphs with the right triplex set.  The enumeration
stays independent of the constructive algorithms it is used to verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple

from .errors import EmptyClassError, NodeSetMismatchError, TooLargeError
from .graphs import ChainGraph, NodeId, pair

#: edge states inside the enumerator: undirected / a->b / b->a for a canonical pair (a, b)
_UND, _FWD, _REV = 0, 1, 2

#: the mark of an edge at one of its ends: an arrowhead into it, a tail, or neither
HEAD = "head"
TAIL = "tail"
UND = "und"


def _is_triplex(mark: str, other: str) -> bool:
    """Do two edge marks at a middle node make a triplex there?

    At least one arrowhead into the middle and no tail out of it; the far
    ends must also be non-adjacent for a triplex of the graph.
    """
    return TAIL not in (mark, other) and HEAD in (mark, other)


def _flanks(
    g: ChainGraph, heads: frozenset[NodeId], others: frozenset[NodeId]
) -> set[tuple[NodeId, NodeId]]:
    """Non-adjacent pairs {a, c} with a in `heads` and c in `heads | others`.

    With the nodes pointing into a middle node as `heads` and its undirected
    neighbors as `others`, these are the flanks of the triplexes at it.
    """
    near = heads | others
    return {pair(a, c) for a in heads for c in near - g.adjacency[a] if c != a}


def _triplex_flanks(g: ChainGraph, b: NodeId) -> set[tuple[NodeId, NodeId]]:
    """Flank pairs of the triplexes whose middle node is b."""
    return _flanks(g, g.parent_map[b], g.neighbor_map[b])


#: triplexes as (middle, sorted flank pair) keys
TriplexKeys = frozenset[tuple[NodeId, tuple[NodeId, NodeId]]]


def triplexes(g: ChainGraph) -> TriplexKeys:
    """All triplexes of the graph, as (middle, sorted flank pair) keys."""
    return frozenset((b, fl) for b in g.nodes for fl in _triplex_flanks(g, b))


def equivalent(g: ChainGraph, h: ChainGraph) -> bool:
    """Same adjacencies and same triplexes."""
    if g.nodes != h.nodes:
        raise NodeSetMismatchError(f"node sets differ: {sorted(g.nodes)} vs {sorted(h.nodes)}")
    return g.skeleton == h.skeleton and triplexes(g) == triplexes(h)


@dataclass(frozen=True)
class EquivalenceClass:
    """All chain graphs over one skeleton sharing one triplex set."""

    members: frozenset[ChainGraph]

    def __iter__(self) -> Iterator[ChainGraph]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: ChainGraph) -> bool:
        return g in self.members


def _ordered_edges(g: ChainGraph) -> list[tuple[NodeId, NodeId]]:
    """Skeleton edges ordered so consecutive edges tend to share nodes.

    Locality lets the enumerator check most triplex constraints early.
    """
    remaining = sorted(g.skeleton)
    order: list[tuple[NodeId, NodeId]] = []
    touched: set[NodeId] = set()
    while remaining:
        best = None
        for e in remaining:
            score = (e[0] in touched) + (e[1] in touched)
            if best is None or score > best[0]:
                best = (score, e)
        order.append(best[1])
        touched.update(best[1])
        remaining.remove(best[1])
    return order


def _semidirected_free(
    nodes: tuple[NodeId, ...],
    edges: list[tuple[NodeId, NodeId]],
    states: tuple[int, ...],
) -> bool:
    """Validity of one orientation assignment (no semidirected cycle)."""
    parent = {n: n for n in nodes}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arcs: list[tuple[NodeId, NodeId]] = []
    for (a, b), s in zip(edges, states):
        if s == _UND:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        elif s == _FWD:
            arcs.append((a, b))
        else:
            arcs.append((b, a))
    succ: dict[NodeId, set[NodeId]] = {}
    indeg: dict[NodeId, int] = {}
    for u, v in arcs:
        ru, rv = find(u), find(v)
        if ru == rv:  # directed edge inside an undirected component
            return False
        succ.setdefault(ru, set())
        succ.setdefault(rv, set())
        if rv not in succ[ru]:
            succ[ru].add(rv)
            indeg[rv] = indeg.get(rv, 0) + 1
        indeg.setdefault(ru, indeg.get(ru, 0))
    ready = [n for n in succ if indeg[n] == 0]
    seen = 0
    while ready:
        cur = ready.pop()
        seen += 1
        for w in succ[cur]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == len(succ)


def _class_states(g: ChainGraph) -> tuple[list[tuple[NodeId, NodeId]], list[tuple[int, ...]]]:
    """Edges plus every orientation assignment matching the triplexes of g."""
    nodes = g.sorted_nodes
    edges = _ordered_edges(g)
    index = {e: i for i, e in enumerate(edges)}
    target = triplexes(g)

    # candidate triples (two skeleton edges at a middle with non-adjacent far
    # endpoints), attached to the later edge in assignment order with the
    # (earlier state, later state) pairs that match the target triplex set
    checks: list[list[tuple[int, frozenset[tuple[int, int]]]]] = [[] for _ in edges]
    for b in nodes:
        incident = sorted(e for e in edges if b in e)
        for e1, e2 in combinations(incident, 2):
            f1 = e1[0] if e1[1] == b else e1[1]
            f2 = e2[0] if e2[1] == b else e2[1]
            if pair(f1, f2) in g.skeleton:
                continue
            expected = (b, pair(f1, f2)) in target
            i, j = index[e1], index[e2]
            if i > j:
                i, j = j, i
                e1, e2 = e2, e1
            # the mark at b of each edge, per state
            m1 = (UND, HEAD, TAIL) if e1[1] == b else (UND, TAIL, HEAD)
            m2 = (UND, HEAD, TAIL) if e2[1] == b else (UND, TAIL, HEAD)
            allowed = frozenset(
                (si, sj)
                for si in (_UND, _FWD, _REV)
                for sj in (_UND, _FWD, _REV)
                if _is_triplex(m1[si], m2[sj]) == expected
            )
            checks[j].append((i, allowed))

    states: list[int] = [0] * len(edges)
    out: list[tuple[int, ...]] = []

    def rec(k: int) -> None:
        if k == len(edges):
            assignment = tuple(states)
            if _semidirected_free(nodes, edges, assignment):
                out.append(assignment)
            return
        for s in (_UND, _FWD, _REV):
            states[k] = s
            for i, allowed in checks[k]:
                if (states[i], s) not in allowed:
                    break
            else:
                rec(k + 1)

    rec(0)
    return edges, out


def enumerate_class(g: ChainGraph, max_edges: int = 16) -> EquivalenceClass:
    """Every chain graph with the skeleton and triplexes of g.

    Brute force over the 3^|E| orientation assignments (with early pruning on
    triplex mismatches); guarded by an explicit edge cap.
    """
    if len(g.skeleton) > max_edges:
        raise TooLargeError(
            f"{len(g.skeleton)} edges exceeds the enumeration cap of {max_edges}"
        )
    edges, assignments = _class_states(g)
    members = set()
    for states in assignments:
        directed = []
        undirected = []
        for (a, b), s in zip(edges, states):
            if s == _UND:
                undirected.append((a, b))
            elif s == _FWD:
                directed.append((a, b))
            else:
                directed.append((b, a))
        members.add(
            ChainGraph(
                nodes=g.nodes,
                directed=frozenset(directed),
                undirected=frozenset(undirected),
            )
        )
    return EquivalenceClass(members=frozenset(members))


def essential_from_class(cls: EquivalenceClass) -> ChainGraph:
    """Class representative: a directed edge survives iff its reverse never occurs.

    An edge a->b appears in the output exactly when some member carries a->b
    and no member carries b->a; every other skeleton edge is undirected.
    """
    if not cls.members:
        raise EmptyClassError("empty equivalence class")
    some = next(iter(cls.members))
    directed = []
    undirected = []
    for a, b in sorted(some.skeleton):
        fwd = any(m.has_directed(a, b) for m in cls.members)
        rev = any(m.has_directed(b, a) for m in cls.members)
        if fwd and not rev:
            directed.append((a, b))
        elif rev and not fwd:
            directed.append((b, a))
        else:
            undirected.append((a, b))
    return ChainGraph(some.nodes, frozenset(directed), frozenset(undirected))


class StrongEdgeSummary(NamedTuple):
    """Edges shared, with orientation, by every member of a class."""

    directed: frozenset[tuple[NodeId, NodeId]]
    undirected: frozenset[tuple[NodeId, NodeId]]


def strong_oracle(cls: EquivalenceClass) -> StrongEdgeSummary:
    """Brute-force strong labels: edges identical across all members."""
    if not cls.members:
        raise EmptyClassError("empty equivalence class")
    some = next(iter(cls.members))
    strong_dir = set()
    strong_und = set()
    for a, b in some.skeleton:
        if all(m.has_directed(a, b) for m in cls.members):
            strong_dir.add((a, b))
        elif all(m.has_directed(b, a) for m in cls.members):
            strong_dir.add((b, a))
        elif all(m.has_undirected(a, b) for m in cls.members):
            strong_und.add(pair(a, b))
    return StrongEdgeSummary(frozenset(strong_dir), frozenset(strong_und))
