"""Feasible merges and splits between chain components, and a maximally
oriented member.

Merging two components turns every directed edge between them undirected;
splitting re-orients the undirected edges across a bipartition of one
component.  Both operations preserve Markov equivalence when feasible, and
iterating them reaches the whole equivalence class; `ampcg.oracle` builds
that closure only to check it against its enumeration of the class.  A
maximally oriented member is read straight off the essential graph's marks
by `graphs._oriented`, the builder finalization uses too: it orients the
edges blocked at neither end by visit rank under maximum cardinality search.
The brute-force split search in `ampcg.oracle` only serves as its oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .equivalence import equivalent
from .errors import InfeasibleMergeError, InfeasibleSplitError, NotComponentsError
from .essential import essential_graph
from .graphs import (
    ChainGraph,
    GraphIndex,
    NodeId,
    _is_clique,
    _mcs_ranks,
    _oriented,
    _reach,
    _step,
    chain_components,
    pair,
)


def _semidirected_descendants(index: GraphIndex, xs: int) -> int:
    """The mask of the nodes reachable from the mask `xs` by a route of ->
    and -- steps containing an arrow.

    This is the reachability that matters for merge feasibility: after a
    merge, any such route from the upper component to another parent of the
    lower one would close a semidirected cycle.  Directed-only descendants
    are too weak here (an arrow may be followed by undirected hops).
    """
    ch, ne = index.ch, index.ne
    return _reach([c | n for c, n in zip(ch, ne)], _step(ch, _reach(ne, xs)))


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
    index = g.index
    pa, pos = index.pa, index.pos
    up = index.mask_of(upper)
    pa_lower = _step(pa, index.mask_of(lower))
    boundary = pa_lower & up
    if not boundary:
        return False  # nothing to merge
    if not _is_clique(index.ne, boundary):
        return False
    # every boundary node and every parent of one is a parent of each lower node
    covered = boundary | _step(pa, boundary)
    if any(covered & ~pa[pos[y]] for y in lower):
        return False
    if _semidirected_descendants(index, up) & pa_lower:
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
    """Orient the crossing edges of a proper bipartition upper | lower of the
    component `comp` as upper -> lower; None when the result is not
    equivalent to g.

    The result is never g, and always a chain graph.  A component is
    connected by its undirected edges, so a proper bipartition has a
    crossing edge.  A semidirected cycle would need a new arrow u -> l, as g
    has none; but from l an undirected step stays in lower, and an arrow
    leads to a later component, from which every route stays in the same or
    later components, so no route gets back to u in upper.
    """
    crossing = {
        ((u, v) if u in upper else (v, u))
        for u, v in g.undirected
        if u in comp and v in comp and (u in upper) != (v in upper)
    }
    candidate = ChainGraph(
        g.nodes, g.directed | crossing, g.undirected - {pair(a, b) for a, b in crossing}
    )
    return candidate if equivalent(g, candidate) else None


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


def feasible_merges(g: ChainGraph) -> list[tuple[frozenset, frozenset]]:
    """All (upper, lower) component pairs whose merge is feasible."""
    return [
        (cu, cl) for cu, cl in _merge_candidates(g) if feasible_merge_check(g, cu, cl)
    ]


def maximally_oriented(g: ChainGraph) -> ChainGraph:
    """One equivalent chain graph admitting no feasible split.

    Constructive: every maximally oriented member carries the essential
    graph's arrows and keeps exactly its strong undirected edges, the doubly
    blocked edges of its marks, undirected; no strong arrow is searched for.
    The remaining edges, blocked at neither end, are the loose masks;
    `graphs._oriented` reads the member off the marks, each loose edge
    pointing away from the end that maximum cardinality search over the
    loose masks, with lexicographic tie-breaking, visits first.  That is
    acyclic and triplex-free.
    """
    marks = essential_graph(g).marks
    out, inn = marks.out, marks.inn
    loose = [a & ~o & ~n for a, o, n in zip(marks.index.adj, out, inn)]
    return _oriented(marks.index, out, inn, loose, _mcs_ranks(loose))

