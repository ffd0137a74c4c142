"""Essential-graph construction via the triplex set and end-block rules.

The working state is a skeleton whose edge ends carry *blocks*.  A block at
the end of an edge means the edge can never receive an arrowhead there, so an
edge blocked at exactly one end finalizes to an arrow out of that end and an
edge blocked at both ends (or at neither) finalizes undirected.  The rules
R1-R4 only ever add blocks, which makes their fixpoint order-independent.

R1, R2 and R4 read the input graph's triplex set where the paper asks whether
a common neighbor b of non-adjacent a and c lies in a set separating them:
b lies in every such set exactly when a ~ b ~ c is not a triplex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations
from typing import Callable, Iterable, Mapping, Sequence

from .equivalence import TriplexKeys, _triplex_keys
from .graphs import ChainGraph, NodeId, pair, validate_chain_graph

RULE_NAMES = ("R1", "R2", "R3", "R4")


@dataclass(frozen=True)
class MarkedGraph:
    """A skeleton with per-edge-end block marks.

    `blocked` holds (end, other) pairs: the edge {end, other} carries a block
    at `end`.
    """

    nodes: frozenset[NodeId]
    skeleton: frozenset[tuple[NodeId, NodeId]]
    blocked: frozenset[tuple[NodeId, NodeId]]

    @cached_property
    def sorted_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def adjacency(self) -> dict[NodeId, frozenset[NodeId]]:
        adj: dict[NodeId, set[NodeId]] = {n: set() for n in self.nodes}
        for a, b in self.skeleton:
            adj[a].add(b)
            adj[b].add(a)
        return {n: frozenset(s) for n, s in adj.items()}

    def is_adjacent(self, u: NodeId, v: NodeId) -> bool:
        return pair(u, v) in self.skeleton

    def is_blocked(self, end: NodeId, other: NodeId) -> bool:
        return (end, other) in self.blocked

    def singly_blocked(self, end: NodeId, other: NodeId) -> bool:
        """Blocked at `end` and plain at `other` (finalizes to end -> other)."""
        return (end, other) in self.blocked and (other, end) not in self.blocked

    def doubly_blocked(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self.blocked and (v, u) in self.blocked

    def plain_edge(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) not in self.blocked and (v, u) not in self.blocked

    def edges_blocked_at_one_end(self) -> list[tuple[NodeId, NodeId]]:
        """All (x, y) with the edge blocked at x only, in deterministic order."""
        out = []
        for a, b in sorted(self.skeleton):
            if self.singly_blocked(a, b):
                out.append((a, b))
            elif self.singly_blocked(b, a):
                out.append((b, a))
        return out

    def finalize(self) -> ChainGraph:
        """Orient singly blocked edges out of their blocked end; rest undirected."""
        directed = []
        undirected = []
        for a, b in sorted(self.skeleton):
            if self.singly_blocked(a, b):
                directed.append((a, b))
            elif self.singly_blocked(b, a):
                directed.append((b, a))
            else:
                undirected.append((a, b))
        return validate_chain_graph(self.nodes, directed, undirected)

    def with_blocks(self, additions: Iterable[tuple[NodeId, NodeId]]) -> "MarkedGraph":
        return replace(self, blocked=self.blocked | frozenset(additions))


def unmarked_skeleton(g: ChainGraph) -> MarkedGraph:
    """The skeleton of g with no blocks."""
    return MarkedGraph(nodes=g.nodes, skeleton=g.skeleton, blocked=frozenset())


# ---------------------------------------------------------------------------
# rules R1-R4; each finder yields (rule, additions) for firable instances
# whose additions are not already present


def _r1_instances(m: MarkedGraph, t: TriplexKeys):
    for b, (a, c) in sorted(t):
        additions = frozenset({(a, b), (c, b)}) - m.blocked
        if additions:
            yield ("R1", additions)


def _r2_instances(m: MarkedGraph, t: TriplexKeys):
    for a, b in sorted(m.blocked):
        for c in sorted(m.adjacency[b] - {a}):
            if m.is_adjacent(a, c) or (b, pair(a, c)) in t:
                continue
            if (b, c) not in m.blocked:
                yield ("R2", frozenset({(b, c)}))


def _chordless_search(
    adj: Mapping[NodeId, frozenset[NodeId]],
    path: list[NodeId],
    b: NodeId,
    step: Callable[[NodeId, NodeId], bool],
    accept: Callable[[list[NodeId]], bool],
) -> bool:
    """Search chordless cycles through the edge a ~ b, walking from a = path[0].

    The path grows by steps last -> w with `step(last, w)`, never onto b and
    never onto a node adjacent to an earlier path node but `last`.  Once the
    path's last node (other than a) is adjacent to b, `path + [b]` is a
    chordless cycle: it goes to `accept` and is not extended, since any
    extension would leave the chord last ~ b.  Returns True as soon as
    `accept` does; visits candidates in sorted, depth-first order.
    """
    last = path[-1]
    if len(path) >= 2 and b in adj[last]:
        return accept(path)
    for w in sorted(adj[last]):
        if w == b or w in path or not step(last, w):
            continue
        if not adj[w].isdisjoint(path[:-1]):
            continue
        if _chordless_search(adj, path + [w], b, step, accept):
            return True
    return False


def _r3_instances(m: MarkedGraph, t: TriplexKeys):
    """R3: a ~ b closes a chordless cycle a ~ v1 ~ ... ~ vk ~ b (k >= 1)
    whose every edge, vk ~ b included, is blocked at its end nearer a."""
    del t
    adj = m.adjacency
    blocked = m.blocked

    def step(u: NodeId, w: NodeId) -> bool:
        return (u, w) in blocked

    for u, v in sorted(m.skeleton):
        for a, b in ((u, v), (v, u)):
            if (a, b) in blocked:
                continue
            if _chordless_search(adj, [a], b, step, lambda p: (p[-1], b) in blocked):
                yield ("R3", frozenset({(a, b)}))


def _r4_instances(m: MarkedGraph, t: TriplexKeys):
    for b in m.sorted_nodes:
        for a in sorted(m.adjacency[b]):
            if (a, b) in m.blocked:
                continue
            shared = sorted((m.adjacency[a] & m.adjacency[b]) - {a, b})
            for c, d in combinations(shared, 2):
                if m.is_adjacent(c, d):
                    continue
                if (c, b) in m.blocked and (d, b) in m.blocked and (a, (c, d)) not in t:
                    yield ("R4", frozenset({(a, b)}))
                    break


_FINDERS: dict[str, Callable] = {
    "R1": _r1_instances,
    "R2": _r2_instances,
    "R3": _r3_instances,
    "R4": _r4_instances,
}


def apply_rules_R(
    m: MarkedGraph,
    t: TriplexKeys,
    rules: Sequence[str] = RULE_NAMES,
    rng: random.Random | None = None,
) -> MarkedGraph:
    """Least fixpoint of the selected rules.

    The rules only add blocks and never invalidate each other's antecedents,
    so the fixpoint does not depend on application order.  With `rng` given,
    one firable instance is applied at a time in random order (used to test
    exactly that confluence); otherwise whole sweeps are applied at once.
    """
    unknown = set(rules) - set(_FINDERS)
    if unknown:
        raise ValueError(f"unknown rules {sorted(unknown)}")
    blocked = set(m.blocked)
    current = m
    while True:
        instances = list(
            chain.from_iterable(_FINDERS[r](current, t) for r in rules)
        )
        if not instances:
            return current
        if rng is None:
            for _, additions in instances:
                blocked |= additions
        else:
            _, additions = rng.choice(sorted(instances, key=lambda i: (i[0], sorted(i[1]))))
            blocked |= additions
        current = replace(current, blocked=frozenset(blocked))


def chordless_cycles(
    m: MarkedGraph,
    min_len: int = 4,
    edge_ok: Callable[[NodeId, NodeId], bool] | None = None,
) -> list[list[NodeId]]:
    """All chordless cycles of at least `min_len` nodes, each listed once.

    `edge_ok` restricts which edges the cycle may use; chords are judged
    against the full skeleton either way.  Cycles are canonicalized to start
    at their least node with the smaller second node first.
    """
    adj = m.adjacency
    ok = edge_ok or (lambda u, v: True)
    cycles: list[list[NodeId]] = []
    for s in m.sorted_nodes:

        def step(u: NodeId, w: NodeId) -> bool:
            return w > s and ok(u, w)

        def accept(path: list[NodeId]) -> bool:
            if ok(path[-1], s) and len(path) + 1 >= min_len and path[0] < path[-1]:
                cycles.append([s] + path)
            return False

        for v1 in sorted(adj[s]):
            if v1 > s and ok(s, v1):
                _chordless_search(adj, [v1], s, step, accept)
    return cycles


def double_block_chordless_cycles(m: MarkedGraph) -> MarkedGraph:
    """Block both ends of every edge on a long chordless all-plain cycle.

    Snapshot semantics: the qualifying cycles (length at least four, chordless,
    every edge plain at both ends) are found on the input first and all their
    edges are then double-blocked at once.
    """
    cycles = chordless_cycles(m, min_len=4, edge_ok=m.plain_edge)
    additions = set()
    for cycle in cycles:
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            additions.add((u, v))
            additions.add((v, u))
    return m.with_blocks(additions)


@dataclass(frozen=True, eq=False)
class EssentialGraphResult:
    """The essential graph plus the pre-finalization state that produced it."""

    graph: ChainGraph
    marks: MarkedGraph
    triplexes: TriplexKeys


def essential_graph(g: ChainGraph) -> EssentialGraphResult:
    """Construct the essential graph of the equivalence class of g.

    Pipeline: triplex set of g; unmarked skeleton; R1-R4 fixpoint;
    double-blocking of long chordless plain cycles; R2-R4 fixpoint (R1 can no
    longer fire there); finalization of the marks into a chain graph.  The
    marks are returned as well so strong-edge labeling can resume from them.
    """
    t = _triplex_keys(g)
    m = unmarked_skeleton(g)
    m = apply_rules_R(m, t, rules=RULE_NAMES)
    m = double_block_chordless_cycles(m)
    m = apply_rules_R(m, t, rules=("R2", "R3", "R4"))
    return EssentialGraphResult(graph=m.finalize(), marks=m, triplexes=t)
