"""Brute-force oracles: every routine here enumerates and refuses past a cap.

The constructive pipeline (`essential_graph`, `label_strong`,
`maximally_oriented`, the `maxoriented` adjusting sets) never imports this
module; the tests, `ampcg oracle`, `ampcg class`, `ampcg minmax --mode min`
and the `class` and `superset` adjusting-set modes do, when they run.

Two chain graphs are Markov equivalent exactly when they share adjacencies
and triplexes, so `enumerate_class` walks the orientation assignments of a
skeleton and keeps those with the right triplexes that are chain graphs; the
class then yields the essential graph and the strong edges by definition.
It shares three primitives with the package: `equivalence._is_triplex`
(which end marks make a triplex), `equivalence.triplexes` (the target set)
and `graphs._component_order`, the semidirected-cycle test every
`ChainGraph` passes.  It reads nothing of `essential`, `strong` or
`transform`'s member builder, the algorithms it is used to verify.
`class_by_merge_split` reaches the same class as the closure under
`transform`'s feasible merges and splits, and the minimally and maximally
oriented members are the members that admit no merge, or no split.  Each
entry point checks its size through `errors.check_cap` before it enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .causal import AdjustingSet, adjusting_set
from .equivalence import HEAD, TAIL, UND, _is_triplex, triplexes
from .errors import MAX_EDGES, SUPERSET_CAP, EmptyClassError, check_cap
from .graphs import ChainGraph, GraphIndex, NodeId, _component_order, chain_components, family, pair
from .transform import _merged, _split_result, feasible_merges

#: edge states inside the enumerator: undirected / a->b / b->a for a canonical pair (a, b)
_UND, _FWD, _REV = 0, 1, 2


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


def enumerate_class(g: ChainGraph, max_edges: int = MAX_EDGES) -> EquivalenceClass:
    """Every chain graph with the skeleton and triplexes of g.

    Brute force over the 3^|E| orientation assignments of the sorted
    skeleton, pruned as soon as an assigned pair of edges disagrees with the
    triplexes of g; a full assignment is kept when `_component_order` finds
    no semidirected cycle in it.  Guarded by an explicit edge cap.
    """
    check_cap(len(g.skeleton), max_edges, "{count} edges exceeds the enumeration cap of {cap}")
    index = g.index
    edges = sorted(g.skeleton)
    target = triplexes(g)

    # candidate triples (two skeleton edges at a middle with non-adjacent far
    # endpoints), attached to the later edge in assignment order with the
    # (earlier state, later state) pairs that match the target triplex set
    checks: list[list[tuple[int, frozenset[tuple[int, int]]]]] = [[] for _ in edges]
    for b in index.nodes:
        incident = [(k, e) for k, e in enumerate(edges) if b in e]
        for (i, e1), (j, e2) in combinations(incident, 2):
            f1 = e1[0] if e1[1] == b else e1[1]
            f2 = e2[0] if e2[1] == b else e2[1]
            if pair(f1, f2) in g.skeleton:
                continue
            expected = (b, pair(f1, f2)) in target
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

    # every member shares g's skeleton, so its index differs from g's only
    # in the parent and neighbor masks
    ends = [(index.pos[a], index.pos[b]) for a, b in edges]
    states: list[int] = [0] * len(edges)
    members = set()

    def rec(k: int) -> None:
        if k == len(edges):
            pa = [0] * len(index.nodes)
            ne = [0] * len(index.nodes)
            for (i, j), s in zip(ends, states):
                if s == _UND:
                    ne[i] |= 1 << j
                    ne[j] |= 1 << i
                elif s == _FWD:
                    pa[j] |= 1 << i
                else:
                    pa[i] |= 1 << j
            member = GraphIndex(index.nodes, index.pos, index.adj, tuple(pa), tuple(ne))
            order = _component_order(member)
            if order is not None:
                members.add(ChainGraph._of(member, order))
            return
        for s in (_UND, _FWD, _REV):
            states[k] = s
            for i, allowed in checks[k]:
                if (states[i], s) not in allowed:
                    break
            else:
                rec(k + 1)

    rec(0)
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


def _split_candidates(
    g: ChainGraph,
) -> Iterator[tuple[frozenset, frozenset]]:
    for comp in chain_components(g).components:
        if len(comp) < 2:
            continue
        members = sorted(comp)
        for size in range(1, len(members)):
            for chosen in combinations(members, size):
                yield comp, frozenset(chosen)


def class_by_merge_split(g: ChainGraph, max_edges: int = MAX_EDGES) -> EquivalenceClass:
    """Equivalence class as the closure of g under feasible merges and splits."""
    check_cap(len(g.skeleton), max_edges, "{count} edges exceeds the closure cap of {cap}")
    seen = {g}
    frontier = [g]
    while frontier:
        cur = frontier.pop()
        neighbors = [_merged(cur, cu, cl) for cu, cl in feasible_merges(cur)]
        for comp, upper in _split_candidates(cur):
            result = _split_result(cur, comp, upper)
            if result is not None:
                neighbors.append(result)
        for nxt in neighbors:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return EquivalenceClass(members=frozenset(seen))


def _merge_free(members: Iterable[ChainGraph]) -> frozenset[ChainGraph]:
    """The members admitting no feasible merge."""
    return frozenset(m for m in members if not feasible_merges(m))


def minimally_oriented(g: ChainGraph, max_edges: int = MAX_EDGES) -> frozenset[ChainGraph]:
    """All equivalent chain graphs admitting no feasible merge."""
    return _merge_free(class_by_merge_split(g, max_edges=max_edges))


def has_feasible_split(g: ChainGraph, max_edges: int = MAX_EDGES) -> bool:
    """Does some bipartition of some component split feasibly? (brute force)"""
    check_cap(len(g.skeleton), max_edges, "{count} edges exceeds the split search cap of {cap}")
    return any(
        _split_result(g, comp, upper) is not None
        for comp, upper in _split_candidates(g)
    )


def _split_free(members: Iterable[ChainGraph], max_edges: int) -> frozenset[ChainGraph]:
    """The members admitting no feasible split (brute force)."""
    return frozenset(m for m in members if not has_feasible_split(m, max_edges))


def maximally_oriented_members(
    g: ChainGraph, max_edges: int = MAX_EDGES
) -> frozenset[ChainGraph]:
    """All equivalent chain graphs admitting no feasible split (brute force)."""
    return _split_free(enumerate_class(g, max_edges=max_edges), max_edges)


def class_adjusting_sets(eg: ChainGraph, x: NodeId, max_edges: int) -> frozenset[AdjustingSet]:
    """The `class` mode: the adjusting set of every member of the class."""
    return frozenset(
        AdjustingSet(nodes=adjusting_set(m, x)) for m in enumerate_class(eg, max_edges=max_edges)
    )


def superset_adjusting_sets(eg: ChainGraph, x: NodeId) -> frozenset[AdjustingSet]:
    """The `superset` mode: every subset of the two-step adjacency closure
    of x."""
    ad = family(eg, {x}, "ad")
    base = sorted((ad | family(eg, ad, "ad")) - {x})
    check_cap(len(base), SUPERSET_CAP, "superset base of {count} nodes exceeds the cap of {cap}")
    out = set()
    for size in range(len(base) + 1):
        for combo in combinations(base, size):
            out.add(AdjustingSet(nodes=frozenset(combo)))
    return frozenset(out)
