"""Triplexes and Markov equivalence.

This module holds the one triplex test: `_is_triplex` on the two edge marks
at a middle node, `_flank_masks` on the masks of the nodes around it (read
from `ChainGraph.index`).  `_triplex_masks` applies it at every middle node;
`triplexes` and the essential graph's rules both read its masks.  The same
flank search, with the edges blocked at their far end only as heads and the
doubly blocked edges as the others, answers the pretriplexes of marks
(`strong._pretriplexes_by_end`).  Two chain graphs are Markov equivalent
exactly when they share adjacencies and triplexes; the brute-force class
enumeration built on that lives in `ampcg.oracle`.
"""

from __future__ import annotations

from .errors import NodeSetMismatchError
from .graphs import ChainGraph, GraphIndex, Masks, NodeId

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


def _flank_masks(adj: Masks, heads: int, others: int) -> dict[int, int]:
    """For each a in the mask `heads | others`, the mask of the non-adjacent
    c that pair with it into a flank {a, c}, where a pair needs one end in
    `heads`; only the a with some c are keys.

    With the nodes pointing into a middle node as `heads` and its undirected
    neighbors as `others`, these are the flanks of the triplexes at it.
    """
    near = heads | others
    found = {}
    x = near
    while x:
        low = x & -x
        a = low.bit_length() - 1
        x ^= low
        cs = (near if heads & low else heads) & ~adj[a] & ~low
        if cs:
            found[a] = cs
    return found


def _triplex_masks(index: GraphIndex) -> list[dict[int, int]]:
    """tri[b][a]: the mask of the c with a ~ b ~ c a triplex of the graph,
    for every a that flanks one at b."""
    adj, ne = index.adj, index.ne
    return [_flank_masks(adj, heads, ne[b]) if heads else {} for b, heads in enumerate(index.pa)]


#: triplexes as (middle, sorted flank pair) keys
TriplexKeys = frozenset[tuple[NodeId, tuple[NodeId, NodeId]]]


def _triplex_keys(index: GraphIndex, tri: list[dict[int, int]]) -> TriplexKeys:
    """The triplex masks `tri` as (middle, sorted flank pair) keys."""
    names = index.nodes
    keys = []
    for b, at in enumerate(tri):
        for a, cs in at.items():
            x = cs >> (a + 1) << (a + 1)
            while x:
                low = x & -x
                keys.append((names[b], (names[a], names[low.bit_length() - 1])))
                x ^= low
    return frozenset(keys)


def triplexes(g: ChainGraph) -> TriplexKeys:
    """All triplexes of the graph, as (middle, sorted flank pair) keys."""
    return _triplex_keys(g.index, _triplex_masks(g.index))


def equivalent(g: ChainGraph, h: ChainGraph) -> bool:
    """Same adjacencies and same triplexes, compared as masks over the
    shared node positions."""
    gi, hi = g.index, h.index
    if gi.nodes != hi.nodes:
        raise NodeSetMismatchError(f"node sets differ: {list(gi.nodes)} vs {list(hi.nodes)}")
    return gi.adj == hi.adj and _triplex_masks(gi) == _triplex_masks(hi)
