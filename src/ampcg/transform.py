"""Feasible merges and splits between chain components, and the class closure.

Merging two components turns every directed edge between them undirected;
splitting re-orients the undirected edges across a bipartition of one
component.  Both operations preserve Markov equivalence when feasible, and
iterating them reaches the whole equivalence class, which this module
exploits to enumerate classes and to find the minimally oriented members.
A maximally oriented member is built directly from the strong labels of the
essential graph; the split search here only serves as its oracle.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .equivalence import EquivalenceClass, enumerate_class, equivalent
from .errors import (
    InfeasibleMergeError,
    InfeasibleSplitError,
    NotComponentsError,
    SemidirectedCycleError,
    TooLargeError,
)
from .graphs import (
    ChainGraph,
    GraphIndex,
    NodeId,
    _mcs_ranks,
    chain_components,
    family,
    is_complete,
    pair,
)
from .strong import strong_labeling


def _semidirected_descendants(g: ChainGraph, xs: Iterable[NodeId]) -> frozenset[NodeId]:
    """Nodes reachable by a route of -> and -- steps containing an arrow.

    This is the reachability that matters for merge feasibility: after a
    merge, any such route from the upper component to another parent of the
    lower one would close a semidirected cycle.  Directed-only descendants
    are too weak here (an arrow may be followed by undirected hops).
    """
    frontier: list[tuple[NodeId, bool]] = [(x, False) for x in frozenset(xs)]
    seen: set[tuple[NodeId, bool]] = set(frontier)
    while frontier:
        node, arrow = frontier.pop()
        for w in g.child_map[node]:
            state = (w, True)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
        for w in g.neighbor_map[node]:
            state = (w, arrow)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return frozenset(n for n, arrow in seen if arrow)


def _require_component(g: ChainGraph, comp: frozenset[NodeId]) -> None:
    if comp not in chain_components(g).components:
        raise NotComponentsError(f"{sorted(comp)} is not a chain component")


def feasible_merge_check(
    g: ChainGraph, upper: Iterable[NodeId], lower: Iterable[NodeId]
) -> bool:
    """Can the components `upper` and `lower` be merged without changing the class?

    Requires at least one directed edge from upper into lower, and then the
    four feasibility conditions: the upper parents of the lower component must
    each cover all of it, form a complete set, pass all their own parents on
    to every lower node, and upper may not reach any parent of lower through
    a semidirected route.
    """
    upper, lower = frozenset(upper), frozenset(lower)
    _require_component(g, upper)
    _require_component(g, lower)
    if upper == lower:
        raise NotComponentsError("upper and lower must be distinct components")
    pa_lower = family(g, lower, "pa")
    boundary = pa_lower & upper
    if not boundary:
        return False  # nothing to merge
    if not all(lower <= family(g, {x}, "ch") for x in boundary):
        return False
    if not is_complete(g, boundary):
        return False
    pa_boundary = family(g, boundary, "pa")
    if not all(pa_boundary <= family(g, {y}, "pa") for y in lower):
        return False
    if _semidirected_descendants(g, upper) & pa_lower:
        return False
    return True


def merge(
    g: ChainGraph, upper: Iterable[NodeId], lower: Iterable[NodeId]
) -> ChainGraph:
    """Replace every directed edge from upper into lower with an undirected one."""
    upper, lower = frozenset(upper), frozenset(lower)
    if not feasible_merge_check(g, upper, lower):
        raise InfeasibleMergeError(
            f"merging {sorted(upper)} into {sorted(lower)} is not feasible"
        )
    return _merged(g, upper, lower)


def _merged(g: ChainGraph, upper: frozenset[NodeId], lower: frozenset[NodeId]) -> ChainGraph:
    """`merge` without its feasibility check, for merges already checked."""
    moved = {(u, v) for u, v in g.directed if u in upper and v in lower}
    return ChainGraph(
        g.nodes, g.directed - moved, g.undirected | {pair(u, v) for u, v in moved}
    )


def _split_result(
    g: ChainGraph, comp: frozenset[NodeId], upper: frozenset[NodeId]
) -> ChainGraph | None:
    """Orient the crossing edges of a bipartition; None when infeasible.

    Feasibility is semantic: the result must be a valid chain graph that is
    equivalent to the input.
    """
    crossing = {
        ((u, v) if u in upper else (v, u))
        for u, v in g.undirected
        if u in comp and v in comp and (u in upper) != (v in upper)
    }
    if not crossing:
        return None
    try:
        candidate = ChainGraph(
            g.nodes,
            g.directed | crossing,
            g.undirected - {pair(a, b) for a, b in crossing},
        )
    except SemidirectedCycleError:
        return None
    if not equivalent(g, candidate):
        return None
    return candidate


def split(
    g: ChainGraph,
    comp: Iterable[NodeId],
    upper: Iterable[NodeId],
    lower: Iterable[NodeId],
) -> ChainGraph:
    """Orient every upper--lower edge of the component as upper -> lower."""
    comp, upper, lower = frozenset(comp), frozenset(upper), frozenset(lower)
    _require_component(g, comp)
    if upper | lower != comp or upper & lower or not upper or not lower:
        raise NotComponentsError("upper and lower must partition the component")
    result = _split_result(g, comp, upper)
    if result is None:
        raise InfeasibleSplitError(
            f"splitting {sorted(comp)} into {sorted(upper)} -> {sorted(lower)}"
            " is not feasible"
        )
    return result


def _merge_candidates(g: ChainGraph) -> Iterator[tuple[frozenset, frozenset]]:
    component_of = chain_components(g).component_of
    linked = {(component_of[u], component_of[v]) for u, v in g.directed}
    for cu, cl in sorted(linked, key=lambda p: (sorted(p[0]), sorted(p[1]))):
        yield cu, cl


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


def feasible_merges(g: ChainGraph) -> list[tuple[frozenset, frozenset]]:
    """All (upper, lower) component pairs whose merge is feasible."""
    return [
        (cu, cl) for cu, cl in _merge_candidates(g) if feasible_merge_check(g, cu, cl)
    ]


def class_by_merge_split(g: ChainGraph, max_edges: int = 16) -> EquivalenceClass:
    """Equivalence class as the closure of g under feasible merges and splits."""
    if len(g.skeleton) > max_edges:
        raise TooLargeError(
            f"{len(g.skeleton)} edges exceeds the closure cap of {max_edges}"
        )
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


def minimally_oriented(g: ChainGraph, max_edges: int = 16) -> frozenset[ChainGraph]:
    """All equivalent chain graphs admitting no feasible merge."""
    members = class_by_merge_split(g, max_edges=max_edges)
    return frozenset(m for m in members if not feasible_merges(m))


def has_feasible_split(g: ChainGraph) -> bool:
    """Does some bipartition of some component split feasibly? (brute force)"""
    return any(
        _split_result(g, comp, upper) is not None
        for comp, upper in _split_candidates(g)
    )


def maximally_oriented(g: ChainGraph) -> ChainGraph:
    """One equivalent chain graph admitting no feasible split.

    Constructive: every maximally oriented member carries the essential
    graph's arrows and keeps exactly its strong undirected edges undirected.
    The remaining undirected edges are oriented acyclically and triplex-free
    by maximum cardinality search, with lexicographic tie-breaking: on the
    essential graph's neighbor masks less the strong pairs, each such edge
    points away from the end visited first.
    """
    labeling = strong_labeling(g)
    eg = labeling.graph
    index = eg.index
    names, pos = index.nodes, index.pos
    strong = [0] * len(names)
    for a, b in labeling.strong_undirected:
        i, j = pos[a], pos[b]
        strong[i] |= 1 << j
        strong[j] |= 1 << i
    loose = [ne & ~s for ne, s in zip(index.ne, strong)]
    rank = _mcs_ranks(loose)
    pa = list(index.pa)
    directed = set(eg.directed)
    for i, x in enumerate(loose):
        x = x >> (i + 1) << (i + 1)
        while x:
            low = x & -x
            j = low.bit_length() - 1
            x ^= low
            u, w = (i, j) if rank[i] < rank[j] else (j, i)
            pa[w] |= 1 << u
            directed.add((names[u], names[w]))
    return ChainGraph._indexed(
        eg.nodes,
        frozenset(directed),
        labeling.strong_undirected,
        GraphIndex(names, pos, index.adj, tuple(pa), tuple(strong)),
    )


def maximally_oriented_members(
    g: ChainGraph, max_edges: int = 16
) -> frozenset[ChainGraph]:
    """All equivalent chain graphs admitting no feasible split (brute force)."""
    members = enumerate_class(g, max_edges=max_edges)
    return frozenset(m for m in members if not has_feasible_split(m))
