"""Enumeration-free labeling of strong edges in an essential graph.

Works on the pre-finalization marks: doubly blocked edges are strong
undirected; an edge blocked at one end is a strong arrow exactly when forcing
it undirected (blocking the other end, then re-running the propagation rules)
destroys a pretriplex that the essential graph carries.  Totally plain edges
are non-strong undirected.

Everything here reads the marks as `MarkedGraph` holds them: its `index` and
the mask tuples `out` and `inn`; the rules name the edges they label.  A
re-blocked copy is a list copy of the two mask tuples, closed under R2 and
R3 from its one new block, and `label_strong` draws that closure only until
it destroys a pretriplex.  That is exact.  Blocks only grow, so a pretriplex
destroyed mid-closure stays destroyed, and a copy that closes without
destroying one is weak.  The pretriplex a ~ b ~ c is destroyed once (b, a)
and (b, c) are both blocked, and the later of the two blocks finds it by
reading `pre[b]` at its own end: if both are new, a and c were each blocked
at their end only, so `pre[b][a]` holds c and `pre[b][c]` holds a; if (b, c)
was blocked before, only (b, a) is new and `pre[b][a]` holds c.

S1-S3 are a sound but incomplete shortcut for strong arrows.  `label_strong`
seeds its labels from S3 alone, which spares the copies that close the most;
the copies find every other strong arrow, those the paper's S4-S6 chain from
known labels included.  S1, S2 and `accelerator_labels` are off the labeling
path and serve `ampcg strong --rules-only`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .equivalence import _flank_masks, _triplex_keys, _triplex_masks
from .errors import InvalidStateError, InvariantViolationError, SemidirectedCycleError
from .essential import (
    EssentialGraphResult,
    MarkedGraph,
    _close_blocks,
    _one_end_blocked,
    _path_exists,
    essential_graph,
)
from .graphs import ChainGraph, NodeId, _positions


@dataclass(frozen=True)
class StrongLabeling:
    """An essential graph with its edges classified by strength."""

    graph: ChainGraph
    strong_directed: frozenset[tuple[NodeId, NodeId]]
    strong_undirected: frozenset[tuple[NodeId, NodeId]]


def _pretriplexes_by_end(m: MarkedGraph) -> list[dict[int, int]]:
    """Induced paths a ~ b ~ c that finalize to a triplex at b: pre[b][a] is
    the mask of their c, for each a with a ~ b blocked at a only.

    They are the flanks `equivalence._flank_masks` finds at b, with the
    edges blocked at their far end only as heads (a future arrow a -> b) and
    the doubly blocked edges as the others.  A re-blocked copy destroys the
    pretriplex only by blocking both (b, a) and (b, c), so only the copies
    that newly block (b, a) need to look at it.  The search also keys the a
    with a ~ b doubly blocked, which no copy reads: (b, a) is blocked in the
    marks already, so it is never new to a copy.  Those ends stay in the
    search all the same, since they are the c of the other keys.
    """
    adj = m.index.adj
    return [_flank_masks(adj, n & ~o, n & o) for o, n in zip(m.out, m.inn)]


def _check_line6_fixpoint(m: MarkedGraph, tri: list[dict[int, int]]) -> None:
    out, inn = list(m.out), list(m.inn)
    if any(_close_blocks(m.index.adj, tri, out, inn, _positions(out), r4=True)):
        raise InvalidStateError("marks are not a fixpoint of the propagation rules")


def _verify_candidate_state(h: MarkedGraph, eg_tri: list[dict[int, int]]) -> None:
    """Invariants every re-blocked copy must satisfy before finalization.

    Checked: no induced triangle with one blocked edge and two totally plain
    edges; finalization yields a valid chain graph (so no chordless cycle
    carries single blocks in one rotational sense only); finalization adds
    no triplex the essential graph's triplex masks `eg_tri` lack.
    """
    names = h.index.nodes
    plain = [a & ~o & ~n for a, o, n in zip(h.index.adj, h.out, h.inn)]
    for x, y in _positions(h.out):
        common = plain[x] & plain[y]
        if common:
            c = names[(common & -common).bit_length() - 1]
            raise InvariantViolationError(
                f"blocked edge {names[x]}~{names[y]} on an otherwise plain triangle with {c}"
            )
    try:
        oriented = h.finalize()
    except SemidirectedCycleError as exc:
        raise InvariantViolationError(f"finalization yields a {exc}") from exc
    tri = _triplex_masks(oriented.index)
    if any(cs & ~eg_tri[b].get(a, 0) for b, at in enumerate(tri) for a, cs in at.items()):
        extra = _triplex_keys(h.index, tri) - _triplex_keys(h.index, eg_tri)
        raise InvariantViolationError(f"finalization created triplexes {sorted(extra)}")


def label_strong(result: EssentialGraphResult, check_invariants: bool = False) -> StrongLabeling:
    """Classify every edge of an essential graph as strong or not.

    `result` is what `essential_graph` returned: the pre-finalization marks,
    closed under R1-R4 by construction, and the triplex masks they were
    closed under.  Each singly blocked x -> y is re-blocked at y, and the
    copy's closure is drawn round by round only until a new block destroys
    a pretriplex; arrows S3 already labels strong skip their copies.

    With `check_invariants`, the marks are re-closed first, and marks that
    are not closed under R2-R4 raise `InvalidStateError`; then every singly
    blocked edge is re-blocked anyway, each copy is closed fully and
    asserted against the orientation invariants, and each S3 label must be
    confirmed by its own copy.
    """
    m, tri = result.marks, result._tri
    names = m.index.nodes
    if check_invariants:
        _check_line6_fixpoint(m, tri)
    eg = result.graph
    eg_tri = _triplex_masks(eg.index) if check_invariants else []
    pre = _pretriplexes_by_end(m)
    strong_arrows = _s3(m)
    confirmed: set[tuple[NodeId, NodeId]] = set()
    for x, y in _one_end_blocked(m):
        edge = (names[x], names[y])
        if edge in strong_arrows and not check_invariants:
            continue
        out, inn = list(m.out), list(m.inn)
        out[y] |= 1 << x
        inn[x] |= 1 << y
        rounds = _close_blocks(m.index.adj, tri, out, inn, [(y, x)], r4=False)
        if any(pre[b].get(a, 0) & out[b] for new in chain([[(y, x)]], rounds) for b, a in new):
            confirmed.add(edge)
            strong_arrows.add(edge)
        if check_invariants:
            for _ in rounds:
                pass
            h = MarkedGraph(m.index, tuple(out), tuple(inn))
            _verify_candidate_state(h, eg_tri)
    if check_invariants and strong_arrows - confirmed:
        raise InvariantViolationError(
            f"shortcut labels {sorted(strong_arrows - confirmed)} destroy no pretriplex"
        )
    return StrongLabeling(
        graph=eg,
        strong_directed=frozenset(strong_arrows),
        strong_undirected=result.strong_undirected,
    )


def strong_labeling(g: ChainGraph) -> StrongLabeling:
    """Convenience pipeline: essential graph of g, then edge labeling."""
    return label_strong(essential_graph(g))


# ---------------------------------------------------------------------------
# accelerator rules: they read the masks and name their edges


def _s1(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    """(c, d) singly blocked at c, with non-adjacent a, b not adjacent to d
    and both a ~ c and b ~ c singly blocked at a and b."""
    adj, names = m.index.adj, m.index.nodes
    out, inn = m.out, m.inn
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
    out, inn = m.out, m.inn
    return {
        (names[a], names[b]) for a, b in _one_end_blocked(m) if out[b] & inn[b] & ~adj[a]
    }


def _s3(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    """Chordless cycle a ~ p1 ~ ... ~ pk ~ b (k >= 2) plus the edge a ~ b,
    with every path edge blocked at its end nearer a, the last path edge and
    the closing edge singly blocked at pk and a respectively.  Asked as a
    walk, which is exact on R3-closed marks (see `essential`)."""
    adj, names = m.index.adj, m.index.nodes
    out, inn = m.out, m.inn
    return {
        (names[a], names[b])
        for a, b in _one_end_blocked(m)
        if _path_exists(adj, out, a, b, inn[b] & ~out[b])
    }


def accelerator_labels(m: MarkedGraph) -> frozenset[tuple[NodeId, NodeId]]:
    """Strong arrows detected by S1-S3, which read only the end marks.

    `m` must be settled marks, such as `essential_graph`'s.  Sound but
    deliberately incomplete: some strong arrows are only found by the
    re-blocking check.  `ampcg strong --rules-only` prints these labels;
    `label_strong` reads S3 alone.
    """
    return frozenset(_s1(m) | _s2(m) | _s3(m))
