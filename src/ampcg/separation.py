"""Route-based separation for chain graphs, plus a literal route check.

A node inside a route is a *triplex occurrence* when the two edges around it
carry at least one arrowhead into the node and no arrowhead out of it
(`equivalence._is_triplex`).  A route is Z-open when every triplex
occurrence lies in Z and every other interior occurrence lies outside Z;
endpoints impose no constraint.  Routes may repeat nodes, so the production test works on the finite quotient of
(node, entry-mark) states instead of enumerating routes.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .equivalence import HEAD, TAIL, UND, _is_triplex
from .errors import InvalidQueryError
from .graphs import ChainGraph, NodeId


def _mark_at(g: ChainGraph, node: NodeId, other: NodeId) -> str:
    """Mark of the edge {node, other} at `node`."""
    if g.has_directed(other, node):
        return HEAD
    if g.has_directed(node, other):
        return TAIL
    return UND


def _check_query(
    g: ChainGraph, xs: frozenset[NodeId], ys: frozenset[NodeId], zs: frozenset[NodeId]
) -> None:
    if not xs or not ys:
        raise InvalidQueryError("X and Y must be nonempty")
    for name, s in (("X", xs), ("Y", ys), ("Z", zs)):
        unknown = s - g.nodes
        if unknown:
            raise InvalidQueryError(f"{name} contains unknown nodes {sorted(unknown)}")
    if xs & ys or xs & zs or ys & zs:
        raise InvalidQueryError("X, Y and Z must be pairwise disjoint")


def separated(
    g: ChainGraph,
    xs: Iterable[NodeId],
    ys: Iterable[NodeId],
    zs: Iterable[NodeId] = (),
) -> bool:
    """True iff no Z-open route connects X and Y.

    Multi-source reachability over (node, entry-mark) states: passage through
    an interior node is allowed exactly when its occurrence's triplex status
    matches membership in Z.
    """
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    _check_query(g, xs, ys, zs)
    seen: set[tuple[NodeId, str]] = set()
    queue: deque[tuple[NodeId, str]] = deque()

    def push(node: NodeId, mark: str) -> None:
        state = (node, mark)
        if state not in seen:
            seen.add(state)
            queue.append(state)

    for x in xs:
        for w in g.adjacency[x]:
            if w in ys:
                return False
            push(w, _mark_at(g, w, x))
    while queue:
        node, entry = queue.popleft()
        for w in g.adjacency[node]:
            exit_ = _mark_at(g, node, w)
            if _is_triplex(entry, exit_) != (node in zs):
                continue
            if w in ys:
                return False
            push(w, _mark_at(g, w, node))
    return True


def route_is_open(g: ChainGraph, route: Sequence[NodeId], zs: Iterable[NodeId]) -> bool:
    """Apply the Z-open definition literally to one concrete route."""
    zs = frozenset(zs)
    if len(route) < 2:
        return False
    for a, b in zip(route, route[1:]):
        if not g.is_adjacent(a, b):
            raise InvalidQueryError(f"{a!r} and {b!r} are not adjacent")
    for i in range(1, len(route) - 1):
        entry = _mark_at(g, route[i], route[i - 1])
        exit_ = _mark_at(g, route[i], route[i + 1])
        if _is_triplex(entry, exit_) != (route[i] in zs):
            return False
    return True
