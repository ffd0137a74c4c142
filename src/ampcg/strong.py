"""Enumeration-free labeling of strong edges in an essential graph.

Works on the pre-finalization marks: doubly blocked edges are strong
undirected; an edge blocked at one end is a strong arrow exactly when forcing
it undirected (blocking the other end, then re-running the propagation rules)
destroys a pretriplex that the essential graph carries.  Totally plain edges
are non-strong undirected.  The S1-S6 rules are a sound but incomplete
shortcut for strong arrows.

Everything here reads the marks as `essential`'s masks (`MarkedGraph.index`
and `block_masks`); the rules name the edges they label.  A re-blocked copy
is a copy of the two mask lists, closed under R2 and R3 from its one new
block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equivalence import TriplexKeys, triplexes
from .errors import InvalidStateError, InvariantViolationError, SemidirectedCycleError
from .essential import (
    MarkedGraph,
    _close_blocks,
    _one_end_blocked,
    _path_exists,
    _positions,
    essential_graph,
)
from .graphs import ChainGraph, NodeId


@dataclass(frozen=True)
class StrongLabeling:
    """An essential graph with its edges classified by strength."""

    graph: ChainGraph
    strong_directed: frozenset[tuple[NodeId, NodeId]]
    strong_undirected: frozenset[tuple[NodeId, NodeId]]


def _pretriplexes_by_end(m: MarkedGraph) -> list[dict[int, int]]:
    """Induced paths a ~ b ~ c that finalize to a triplex at b: pre[b][a] is
    the mask of their c.

    The a-side edge is blocked at a only (a future arrow a -> b) and the
    c-side edge is blocked at its c end; both orders of each pattern are kept
    because the flanking roles are not symmetric.  A re-blocked copy destroys
    the pretriplex only by blocking both (b, a) and (b, c), so only the
    copies that newly block (b, a) need to look at it.
    """
    adj = m.index.adj
    out, inn = m.block_masks
    pre = []
    for b, into in enumerate(inn):
        ends = {}
        x = into & ~out[b]
        while x:
            low = x & -x
            a = low.bit_length() - 1
            cs = into & ~adj[a] & ~low
            if cs:
                ends[a] = cs
            x ^= low
        pre.append(ends)
    return pre


def _check_line6_fixpoint(m: MarkedGraph, tri: list[dict[int, int]]) -> None:
    out, inn = map(list, m.block_masks)
    if _close_blocks(m.index.adj, tri, out, inn, _positions(out), ("R2", "R3", "R4")):
        raise InvalidStateError("marks are not a fixpoint of the propagation rules")


def _reblocked(
    m: MarkedGraph, tri: list[dict[int, int]], x: int, y: int
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The copy of `m`'s masks that forces x ~ y undirected: (y, x) blocked,
    then closed under R2 and R3.  Returns its `out` and `inn` and its new
    blocks."""
    out, inn = map(list, m.block_masks)
    out[y] |= 1 << x
    inn[x] |= 1 << y
    new = [(y, x)] + _close_blocks(m.index.adj, tri, out, inn, [(y, x)], ("R2", "R3"))
    return out, inn, new


def _verify_candidate_state(h: MarkedGraph, eg_triplexes: TriplexKeys) -> None:
    """Invariants every re-blocked copy must satisfy before finalization.

    Checked: no induced triangle with one blocked edge and two totally plain
    edges; finalization yields a valid chain graph (so no chordless cycle
    carries single blocks in one rotational sense only); finalization adds
    no triplex the essential graph lacks.
    """
    for x, y in sorted(h.blocked):
        for c in sorted(h.adjacency[x] & h.adjacency[y]):
            if h.plain_edge(y, c) and h.plain_edge(x, c):
                raise InvariantViolationError(
                    f"blocked edge {x}~{y} on an otherwise plain triangle with {c}"
                )
    try:
        oriented = h.finalize()
    except SemidirectedCycleError as exc:
        raise InvariantViolationError(f"finalization yields a {exc}") from exc
    extra = triplexes(oriented) - eg_triplexes
    if extra:
        raise InvariantViolationError(f"finalization created triplexes {sorted(extra)}")


def label_strong(
    m: MarkedGraph,
    t: TriplexKeys,
    check_invariants: bool = False,
) -> StrongLabeling:
    """Classify every edge of the essential graph as strong or not.

    `m` must be the pre-finalization marks of an essential graph and `t` the
    triplex set of its class (`EssentialGraphResult.triplexes`).  Edges the
    sound shortcut rules already label strong (S1-S3 up front, S4-S6 chained
    from each strong arrow a re-blocking check finds) skip their own checks.
    With `check_invariants`, every singly blocked edge is re-blocked anyway:
    each re-blocked copy is asserted against the orientation invariants, and
    each shortcut label must be confirmed by its own re-blocking check.
    """
    names = m.index.nodes
    tri = m._triplex_masks(t)
    _check_line6_fixpoint(m, tri)
    eg = m.finalize()
    eg_triplexes = triplexes(eg) if check_invariants else frozenset()
    pre = _pretriplexes_by_end(m)
    out, inn = m.block_masks
    strong_arrows = set(accelerator_labels(m))
    confirmed: set[tuple[NodeId, NodeId]] = set()
    for x, y in _one_end_blocked(m):
        edge = (names[x], names[y])
        if edge in strong_arrows and not check_invariants:
            continue
        copy_out, copy_inn, new = _reblocked(m, tri, x, y)
        if check_invariants:
            _verify_candidate_state(m._with_masks(new, copy_out, copy_inn), eg_triplexes)
        if any(pre[b].get(a, 0) & copy_out[b] for b, a in new):
            confirmed.add(edge)
            if edge not in strong_arrows:
                strong_arrows.add(edge)
                strong_arrows |= _propagate(m, strong_arrows)
    if check_invariants and strong_arrows - confirmed:
        raise InvariantViolationError(
            f"shortcut labels {sorted(strong_arrows - confirmed)} destroy no pretriplex"
        )
    doubly = _positions([o & n for o, n in zip(out, inn)])
    return StrongLabeling(
        graph=eg,
        strong_directed=frozenset(strong_arrows),
        strong_undirected=frozenset((names[i], names[w]) for i, w in doubly if i < w),
    )


def strong_labeling(g: ChainGraph) -> StrongLabeling:
    """Convenience pipeline: essential graph of g, then edge labeling."""
    result = essential_graph(g)
    return label_strong(result.marks, result.triplexes)


# ---------------------------------------------------------------------------
# accelerator rules: they read the masks and name their edges


def _s1(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    """(c, d) singly blocked at c, with non-adjacent a, b not adjacent to d
    and both a ~ c and b ~ c singly blocked at a and b."""
    adj, names = m.index.adj, m.index.nodes
    out, inn = m.block_masks
    found = set()
    for c, (o, n) in enumerate(zip(out, inn)):
        heads, tails = o & ~n, n & ~o
        if not tails:
            continue
        while heads:
            low = heads & -heads
            d = low.bit_length() - 1
            heads ^= low
            flanks = x = tails & ~adj[d]
            while x:
                bit = x & -x
                if flanks & ~adj[bit.bit_length() - 1] & ~bit:
                    found.add((names[c], names[d]))
                    break
                x ^= bit
    return found


def _s2(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    """(a, b) singly blocked at a, with b ~ c doubly blocked for some c not
    adjacent to a."""
    adj, names = m.index.adj, m.index.nodes
    out, inn = m.block_masks
    return {
        (names[a], names[b]) for a, b in _one_end_blocked(m) if out[b] & inn[b] & ~adj[a]
    }


def _s3(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    """Chordless cycle a ~ p1 ~ ... ~ pk ~ b (k >= 2) plus the edge a ~ b,
    with every path edge blocked at its end nearer a, the last path edge and
    the closing edge singly blocked at pk and a respectively.  Asked as a
    walk, which is exact on R3-closed marks (see `essential`)."""
    adj, names = m.index.adj, m.index.nodes
    out, inn = m.block_masks
    return {
        (names[a], names[b])
        for a, b in _one_end_blocked(m)
        if _path_exists(adj, out, a, b, inn[b] & ~out[b])
    }


def _s4(m: MarkedGraph, strong: set[tuple[NodeId, NodeId]]) -> set[tuple[NodeId, NodeId]]:
    """(b, c) singly blocked at b, for a strong a -> b with a not adjacent to c."""
    adj, names, pos = m.index.adj, m.index.nodes, m.index.pos
    out, inn = m.block_masks
    found = set()
    for u, v in strong:
        a, b = pos[u], pos[v]
        if (out[a] & ~inn[a]) >> b & 1:
            x = out[b] & ~inn[b] & ~adj[a]
            while x:
                low = x & -x
                found.add((v, names[low.bit_length() - 1]))
                x ^= low
    return found


def _s5(m: MarkedGraph, strong: set[tuple[NodeId, NodeId]]) -> set[tuple[NodeId, NodeId]]:
    """(a, b) singly blocked at a, for a strong c -> b with (a, c) blocked."""
    names, pos = m.index.nodes, m.index.pos
    out, inn = m.block_masks
    found = set()
    for u, v in strong:
        c, b = pos[u], pos[v]
        if (out[c] & ~inn[c]) >> b & 1:
            x = inn[b] & ~out[b] & inn[c]
            while x:
                low = x & -x
                found.add((names[low.bit_length() - 1], v))
                x ^= low
    return found


def _s6(m: MarkedGraph, strong: set[tuple[NodeId, NodeId]]) -> set[tuple[NodeId, NodeId]]:
    """(a, b) singly blocked at a, for a strong a -> c with (c, b) blocked."""
    names, pos = m.index.nodes, m.index.pos
    out, inn = m.block_masks
    found = set()
    for u, v in strong:
        a, c = pos[u], pos[v]
        if (out[a] & ~inn[a]) >> c & 1:
            x = out[a] & ~inn[a] & out[c]
            while x:
                low = x & -x
                found.add((u, names[low.bit_length() - 1]))
                x ^= low
    return found


def _propagate(
    m: MarkedGraph, strong: set[tuple[NodeId, NodeId]]
) -> set[tuple[NodeId, NodeId]]:
    """Strong arrows S4-S6 chain from `strong` until stable, minus `strong`."""
    closure = set(strong)
    frontier = strong
    while frontier:
        frontier = (_s4(m, frontier) | _s5(m, frontier) | _s6(m, frontier)) - closure
        closure |= frontier
    return closure - strong


def accelerator_labels(m: MarkedGraph) -> frozenset[tuple[NodeId, NodeId]]:
    """Strong arrows detected by S1-S3, which read only the end marks.

    `m` must be settled marks, as `label_strong` takes them.  Sound but
    deliberately incomplete: some strong arrows are only found by the full
    re-blocking check.  S4-S6 need labels established by that check, so
    `label_strong` chains them from each of its hits.
    """
    return frozenset(_s1(m) | _s2(m) | _s3(m))
