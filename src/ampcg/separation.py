"""Route-based separation for chain graphs, plus a literal route oracle.

A node inside a route is a *triplex occurrence* when the two edges around it
carry at least one arrowhead into the node and no arrowhead out of it.  A
route is Z-open when every triplex occurrence lies in Z and every other
interior occurrence lies outside Z; endpoints impose no constraint.  Routes
may repeat nodes, so the production test works on the finite quotient of
(node, entry-mark) states instead of enumerating routes.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import InvalidQueryError
from .graphs import ChainGraph, NodeId

HEAD = "head"
TAIL = "tail"
UND = "und"


def _mark_at(g: ChainGraph, node: NodeId, other: NodeId) -> str:
    """Mark of the edge {node, other} at `node`."""
    if g.has_directed(other, node):
        return HEAD
    if g.has_directed(node, other):
        return TAIL
    return UND


def _is_triplex(entry: str, exit_: str) -> bool:
    return TAIL not in (entry, exit_) and HEAD in (entry, exit_)


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


def open_route_oracle(
    g: ChainGraph,
    xs: Iterable[NodeId],
    ys: Iterable[NodeId],
    zs: Iterable[NodeId] = (),
) -> bool:
    """Exhaustive search for a Z-open route of at most 3|V|+1 nodes.

    The bound is complete: an open route revisiting a
    (node, entry-mark) state can be excised to a shorter open route, so the
    search also skips extensions that repeat a state already on the current
    route.  Every hit is re-checked against the literal definition.
    """
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    _check_query(g, xs, ys, zs)
    bound = 3 * len(g.nodes) + 1

    def dfs(route: list[NodeId], states: frozenset, entry: str | None) -> list[NodeId] | None:
        if len(route) >= bound:
            return None
        last = route[-1]
        for w in sorted(g.adjacency[last]):
            if entry is not None:  # `last` becomes interior: its occurrence must pass
                exit_ = _mark_at(g, last, w)
                if _is_triplex(entry, exit_) != (last in zs):
                    continue
            if w in ys:
                return route + [w]
            state = (w, _mark_at(g, w, last))
            if state in states:
                continue
            hit = dfs(route + [w], states | {state}, state[1])
            if hit is not None:
                return hit
        return None

    for start in sorted(xs):
        route = dfs([start], frozenset(), None)
        if route is not None:
            if not route_is_open(g, route, zs):  # cross-check, never expected
                raise AssertionError(f"search returned a closed route {route}")
            return True
    return False
