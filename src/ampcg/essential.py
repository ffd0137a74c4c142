"""Essential-graph construction via the triplex set and end-block rules.

The working state is a skeleton whose edge ends carry *blocks*.  A block at
the end of an edge means the edge can never receive an arrowhead there, so an
edge blocked at exactly one end finalizes to an arrow out of that end and an
edge blocked at both ends (or at neither) finalizes undirected.  The rules
R1-R4 only ever add blocks, which makes their fixpoint order-independent.

R1, R2 and R4 read the input graph's triplex set where the paper asks whether
a common neighbor b of non-adjacent a and c lies in a set separating them:
b lies in every such set exactly when a ~ b ~ c is not a triplex.

R3, S3 (in `strong`) and double-blocking ask whether a chordless cycle of a
given kind passes through an edge a ~ b, which for arbitrary marks is
NP-complete (Bienstock 1991: a hole through a given vertex).  `_path_exists`
asks instead for a walk a, v1, ..., vk, b (k >= 2) along the required steps,
with v1 outside N[b], vk outside N[a] and every other vi outside N[a] | N[b].
Each chordless cycle is such a walk, and a shortest walk is chordless at the
states where the question is asked:

* R3.  Let vi ~ vj (i < j) be the inner chord of a shortest walk that spans
  the fewest nodes.  The cycle vi ~ ... ~ vj ~ vi is chordless with each path
  edge blocked at its end nearer vi, so exact R3 blocks (vi, vj) and the walk
  could skip the nodes between.  At any fixpoint of exact R3 the walk rule
  thus fires nothing new; the rules are monotone, so every rule set with R3
  has the same least fixpoint under either R3.
* S3 reads marks that passed `strong._check_line6_fixpoint`, so the same
  shortcut applies; it keeps the last step.
* Double-blocking needs `m` to be the R1-R4 fixpoint of `essential_graph`.
  The least-span chord vi ~ vj of a shortest plain walk is not plain, or the
  walk could skip.  If j - i >= 3, a block at vi (or vj) gives (A) on
  vi ~ vj ~ vj-1 (or vj ~ vi ~ vi+1) against a plain path edge.  If
  j - i = 2, vi, vi+1, vj is a triangle that (B) excludes.

(A) At an R1- and R2-closed state, a block (u, v) and an induced path
    u ~ v ~ w leave v ~ w not plain: R2 blocks (v, w), or u ~ v ~ w is a
    triplex and R1 blocked (w, v).
(B) No triangle x, y, c at the R1-R4 fixpoint has a block (x, y) and x ~ c,
    y ~ c plain.  Else take such a block placed first: the blocks its rule
    read were placed before it, so they lie on no such triangle.
    - R1, triplex at y over x, z: (A) on z ~ y ~ c puts c ~ z.  R4 then
      blocks (c, y) over x, z, or c is a triplex over x, z and R1 blocked
      (x, c).
    - R2 from (w, x), w not adjacent to y: (A) on w ~ x ~ c puts c ~ w, and
      w ~ c is not plain.  A block (w, c) gives (A) on w ~ c ~ y, and (c, w)
      lets R3 block (c, x) over w.
    - R3 over x, v1, ..., vk, y: (A) on vk ~ y ~ c puts c ~ vk, and vk ~ c is
      not plain.  (c, vk) lets R3 block (c, y) over vk; (vk, c) lets R3 block
      (x, c) over v1 if k = 1, and gives (A) on vk ~ c ~ x if k >= 2.
    - R4 over p, q, with x no triplex over them: (A) on p ~ y ~ c and
      q ~ y ~ c puts c ~ p, q, and p ~ c, q ~ c are not plain.  (c, p) would
      let R3 block (c, y) over p, so (p, c) and (q, c) are blocked and R4
      blocks (x, c) over p, q.
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


def _path_exists(
    adj: Mapping[NodeId, frozenset[NodeId]],
    a: NodeId,
    b: NodeId,
    step: Callable[[NodeId, NodeId], bool],
    last: Callable[[NodeId], bool],
) -> bool:
    """Is there a walk a, v1, ..., vk, b (a ~ b, k >= 2) along `step` with
    `last(vk)`, v1 not in N[b], vk not in N[a] and v2 .. vk-1 outside
    N[a] | N[b]?  The module docstring says when such a walk is chordless."""
    goals = {w for w in adj[b] - adj[a] if w != a and last(w)}
    if not goals:
        return False
    near = adj[a] | adj[b]
    stack = [w for w in adj[a] - adj[b] if w != b and step(a, w)]
    seen = set(stack)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in seen or not step(u, w):
                continue
            if w in goals:
                return True
            if w not in near:
                seen.add(w)
                stack.append(w)
    return False


def _r3_instances(m: MarkedGraph, t: TriplexKeys):
    """R3: a ~ b closes a chordless cycle a ~ v1 ~ ... ~ vk ~ b (k >= 1)
    whose every edge, vk ~ b included, is blocked at its end nearer a.
    k = 1 is a common neighbor; k >= 2 is asked as a walk."""
    del t
    adj = m.adjacency
    blocked = m.blocked
    for u, v in sorted(m.skeleton):
        for a, b in ((u, v), (v, u)):
            if (a, b) in blocked:
                continue
            if any((a, w) in blocked and (w, b) in blocked for w in adj[a] & adj[b]) or (
                _path_exists(adj, a, b, m.is_blocked, lambda w: (w, b) in blocked)
            ):
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


def double_block_chordless_cycles(m: MarkedGraph) -> MarkedGraph:
    """Block both ends of every edge on a chordless all-plain cycle of at
    least four nodes.

    `m` must be an R1-R4 fixpoint, as in `essential_graph`: only there is an
    all-plain walk around an edge (`_path_exists`) as good as such a cycle.
    Snapshot semantics: the edges are found on the input first and then
    double-blocked at once.
    """
    adj = m.adjacency
    additions = set()
    for a, b in m.skeleton:
        if m.plain_edge(a, b) and _path_exists(
            adj, a, b, m.plain_edge, lambda w: m.plain_edge(w, b)
        ):
            additions |= {(a, b), (b, a)}
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
