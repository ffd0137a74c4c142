"""Enumeration-free labeling of strong edges in an essential graph.

Works on the pre-finalization marks: doubly blocked edges are strong
undirected; an edge blocked at one end is a strong arrow exactly when forcing
it undirected (blocking the other end, then re-running the propagation rules)
destroys a pretriplex that the essential graph carries.  Totally plain edges
are non-strong undirected.  The S1-S6 rules are a sound but incomplete
shortcut for strong arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .equivalence import TriplexKeys, _triplex_keys
from .errors import InvalidStateError, InvariantViolationError, SemidirectedCycleError
from .essential import MarkedGraph, _path_exists, apply_rules_R, essential_graph
from .graphs import ChainGraph, NodeId, pair


@dataclass(frozen=True)
class StrongLabeling:
    """An essential graph with its edges classified by strength."""

    graph: ChainGraph
    strong_directed: frozenset[tuple[NodeId, NodeId]]
    strong_undirected: frozenset[tuple[NodeId, NodeId]]


def _pretriplexes_by_end(
    m: MarkedGraph,
) -> dict[tuple[NodeId, NodeId], list[tuple[NodeId, NodeId]]]:
    """Ordered induced paths a ~ b ~ c that finalize to a triplex at b, as
    (b, c) lists keyed by the end (b, a).

    The a-side edge is blocked at a only (a future arrow a -> b) and the
    c-side edge is blocked at its c end; both orders of each pattern are kept
    because the flanking roles are not symmetric.  A re-blocked copy destroys
    the pretriplex only by blocking both (b, a) and (b, c), so only the
    copies that newly block (b, a) need to look at it.
    """
    out: dict[tuple[NodeId, NodeId], list[tuple[NodeId, NodeId]]] = {}
    for b in m.sorted_nodes:
        for a in sorted(m.adjacency[b]):
            if not m.singly_blocked(a, b):
                continue
            for c in sorted(m.adjacency[b] - {a}):
                if m.is_adjacent(a, c):
                    continue
                if (c, b) in m.blocked:
                    out.setdefault((b, a), []).append((b, c))
    return out


def _check_line6_fixpoint(m: MarkedGraph, t: TriplexKeys) -> None:
    settled = apply_rules_R(m, t, rules=("R2", "R3", "R4"))
    if settled.blocked != m.blocked:
        raise InvalidStateError("marks are not a fixpoint of the propagation rules")


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
    extra = _triplex_keys(oriented) - eg_triplexes
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
    _check_line6_fixpoint(m, t)
    eg = m.finalize()
    eg_triplexes = _triplex_keys(eg) if check_invariants else frozenset()
    pretriplexes = _pretriplexes_by_end(m)
    strong_arrows = set(accelerator_labels(m))
    confirmed: set[tuple[NodeId, NodeId]] = set()
    for x, y in m.edges_blocked_at_one_end():
        if (x, y) in strong_arrows and not check_invariants:
            continue
        h = apply_rules_R(m.with_blocks([(y, x)]), t, rules=("R2", "R3"), new={(y, x)})
        if check_invariants:
            _verify_candidate_state(h, eg_triplexes)
        destroyed = any(
            bc in h.blocked
            for end in h.blocked - m.blocked
            for bc in pretriplexes.get(end, ())
        )
        if destroyed:
            confirmed.add((x, y))
            if (x, y) not in strong_arrows:
                strong_arrows.add((x, y))
                strong_arrows |= _propagate(m, strong_arrows)
    if check_invariants and strong_arrows - confirmed:
        raise InvariantViolationError(
            f"shortcut labels {sorted(strong_arrows - confirmed)} destroy no pretriplex"
        )
    strong_pairs = {pair(a, b) for a, b in m.skeleton if m.doubly_blocked(a, b)}
    strong_pairs |= {pair(u, v) for u, v in strong_arrows}
    strong_directed = frozenset(
        (u, v) for u, v in eg.directed if pair(u, v) in strong_pairs
    )
    strong_undirected = frozenset(e for e in eg.undirected if e in strong_pairs)
    return StrongLabeling(
        graph=eg, strong_directed=strong_directed, strong_undirected=strong_undirected
    )


def strong_labeling(g: ChainGraph) -> StrongLabeling:
    """Convenience pipeline: essential graph of g, then edge labeling."""
    result = essential_graph(g)
    return label_strong(result.marks, result.triplexes)


# ---------------------------------------------------------------------------
# accelerator rules


def _s1(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    out = set()
    for c in m.sorted_nodes:
        nbrs = sorted(m.adjacency[c])
        for d in nbrs:
            if not m.singly_blocked(c, d):
                continue
            for a, b in combinations([n for n in nbrs if n != d], 2):
                if m.is_adjacent(a, b) or m.is_adjacent(a, d) or m.is_adjacent(b, d):
                    continue
                if m.singly_blocked(a, c) and m.singly_blocked(b, c):
                    out.add((c, d))
                    break
    return out


def _s2(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    out = set()
    for a, b in m.edges_blocked_at_one_end():
        for c in sorted(m.adjacency[b] - {a}):
            if m.is_adjacent(a, c):
                continue
            if m.doubly_blocked(b, c):
                out.add((a, b))
                break
    return out


def _s3(m: MarkedGraph) -> set[tuple[NodeId, NodeId]]:
    """Chordless cycle a ~ p1 ~ ... ~ pk ~ b (k >= 2) plus the edge a ~ b,
    with every path edge blocked at its end nearer a, the last path edge and
    the closing edge singly blocked at pk and a respectively.  Asked as a
    walk, which is exact on R3-closed marks (see `essential`)."""
    return {
        (a, b)
        for a, b in m.edges_blocked_at_one_end()
        if _path_exists(m.adjacency, a, b, m.is_blocked, lambda w: m.singly_blocked(w, b))
    }


def _s4(m: MarkedGraph, strong: set[tuple[NodeId, NodeId]]) -> set[tuple[NodeId, NodeId]]:
    out = set()
    for a, b in strong:
        if not (pair(a, b) in m.skeleton and m.singly_blocked(a, b)):
            continue
        for c in sorted(m.adjacency[b] - {a}):
            if m.is_adjacent(a, c):
                continue
            if m.singly_blocked(b, c):
                out.add((b, c))
    return out


def _s5(m: MarkedGraph, strong: set[tuple[NodeId, NodeId]]) -> set[tuple[NodeId, NodeId]]:
    out = set()
    for c, b in strong:
        if not (pair(c, b) in m.skeleton and m.singly_blocked(c, b)):
            continue
        for a in sorted(m.adjacency[b] & m.adjacency[c]):
            if m.singly_blocked(a, b) and (a, c) in m.blocked:
                out.add((a, b))
    return out


def _s6(m: MarkedGraph, strong: set[tuple[NodeId, NodeId]]) -> set[tuple[NodeId, NodeId]]:
    out = set()
    for a, c in strong:
        if not (pair(a, c) in m.skeleton and m.singly_blocked(a, c)):
            continue
        for b in sorted(m.adjacency[a] & m.adjacency[c]):
            if m.singly_blocked(a, b) and (c, b) in m.blocked:
                out.add((a, b))
    return out


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
