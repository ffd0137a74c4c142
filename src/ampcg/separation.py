"""Route-based separation for chain graphs, plus a literal route check.

A node inside a route is a *triplex occurrence* when the two edges around it
carry at least one arrowhead into the node and no arrowhead out of it
(`equivalence._is_triplex`).  A route is Z-open when every triplex
occurrence lies in Z and every other interior occurrence lies outside Z;
endpoints impose no constraint.  Routes may repeat nodes, so the test works
on (node, entry-mark) states instead of enumerating routes: three frontier
masks over `ChainGraph.index`, one per mark at v of the edge a route enters
v by (head from a parent, tail from a child, und from a neighbor).  A route
passes v exactly when the occurrence's triplex status matches v in Z:

    entry | exits if v is in Z | exits if v is not in Z
    head  | parents, neighbors | children
    und   | parents            | neighbors, children
    tail  | none               | parents, neighbors, children

A step to a parent enters it by a tail, to a neighbor by und and to a child
by a head, so one step takes the frontiers to

    tail' = pa of ((head | und) & Z  |  tail & ~Z)
    und'  = ne of (head & Z  |  (und | tail) & ~Z)
    head' = ch of ((head | und | tail) & ~Z)

where "pa of F" is the union of the parent masks of the nodes in F.  An
endpoint allows every exit, as a tail entry outside Z does, so a walk
starts from X as tail entries; X and Z are disjoint.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidQueryError
from .graphs import ChainGraph, GraphIndex, NodeId, _step


def _passes(index: GraphIndex, zs: int, head: int, tail: int, und: int) -> tuple[int, int, int]:
    """The (head, tail, und) entry frontiers one step past the given ones,
    whose nodes pass as the module's table allows with Z the mask `zs`."""
    return (
        _step(index.ch, (head | und | tail) & ~zs),
        _step(index.pa, (head | und) & zs | tail & ~zs),
        _step(index.ne, head & zs | (und | tail) & ~zs),
    )


def _check_known(g: ChainGraph, name: str, s: Iterable[NodeId]) -> None:
    unknown = frozenset(s) - g.nodes
    if unknown:
        raise InvalidQueryError(f"{name} contains unknown nodes {sorted(unknown)}")


def _check_query(
    g: ChainGraph, xs: frozenset[NodeId], ys: frozenset[NodeId], zs: frozenset[NodeId]
) -> None:
    if not xs or not ys:
        raise InvalidQueryError("X and Y must be nonempty")
    for name, s in (("X", xs), ("Y", ys), ("Z", zs)):
        _check_known(g, name, s)
    if xs & ys or xs & zs or ys & zs:
        raise InvalidQueryError("X, Y and Z must be pairwise disjoint")


def separated(
    g: ChainGraph,
    xs: Iterable[NodeId],
    ys: Iterable[NodeId],
    zs: Iterable[NodeId] = (),
) -> bool:
    """True iff no Z-open route connects X and Y.

    Multi-source reachability over the three entry frontiers of the module
    docstring; each (node, entry mark) state is expanded once.
    """
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    _check_query(g, xs, ys, zs)
    index = g.index
    y, z = index.mask_of(ys), index.mask_of(zs)
    head, tail, und = 0, index.mask_of(xs), 0
    seen_head, seen_tail, seen_und = head, tail, und
    while head | tail | und:
        head, tail, und = _passes(index, z, head, tail, und)
        if (head | tail | und) & y:
            return False
        head &= ~seen_head
        tail &= ~seen_tail
        und &= ~seen_und
        seen_head |= head
        seen_tail |= tail
        seen_und |= und
    return True


def route_is_open(g: ChainGraph, route: Sequence[NodeId], zs: Iterable[NodeId]) -> bool:
    """Apply the Z-open definition literally to one concrete route: step the
    entry frontiers along it, keeping only the route's next node."""
    zs = frozenset(zs)
    _check_known(g, "route", route)
    _check_known(g, "Z", zs)
    if len(route) < 2:
        return False
    for a, b in zip(route, route[1:]):
        if not g.is_adjacent(a, b):
            raise InvalidQueryError(f"{a!r} and {b!r} are not adjacent")
    index = g.index
    pos, z = index.pos, index.mask_of(zs)
    frontiers = (0, 1 << pos[route[0]], 0)
    passing = z & ~frontiers[1]  # the first node is an endpoint: Z does not constrain it
    for n in route[1:]:
        frontiers = tuple(f & 1 << pos[n] for f in _passes(index, passing, *frontiers))
        passing = z
    return any(frontiers)
