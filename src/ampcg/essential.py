"""Essential-graph construction via the triplex set and end-block rules.

The working state is a skeleton whose edge ends carry *blocks*.  A block at
the end of an edge means the edge can never receive an arrowhead there, so an
edge blocked at exactly one end finalizes to an arrow out of that end and an
edge blocked at both ends (or at neither) finalizes undirected.  The rules
R1-R4 only ever add blocks, which makes their fixpoint order-independent.

R1, R2 and R4 read the input graph's triplex set where the paper asks whether
a common neighbor b of non-adjacent a and c lies in a set separating them:
b lies in every such set exactly when a ~ b ~ c is not a triplex.

`apply_rules_R` draws the fixpoint by a worklist: once the rest of the marks
is closed, it re-examines only the instances that a new block (u, v) can
fire, and that misses none.  R1 reads no block, so its instances are seeds.
R2 and R4 read the new block as an antecedent: R2's (a, b) is (u, v), and
R4's (c, b) is (u, v) with (d, b) among the blocks already there.  R3 at
(a, b) needs blocked steps a, v1, ..., vk, b; a new instance has (u, v) among
them, so its steps run from a to u and from v to b, and a and b are found by
one walk each over the blocked steps, backwards from u and forwards from v.

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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Iterable, Mapping, Sequence

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
        """A copy with `additions` blocked too, sharing this skeleton's
        `adjacency` and `sorted_nodes`."""
        out = MarkedGraph(self.nodes, self.skeleton, self.blocked | frozenset(additions))
        out.__dict__.update(adjacency=self.adjacency, sorted_nodes=self.sorted_nodes)
        return out


def unmarked_skeleton(g: ChainGraph) -> MarkedGraph:
    """The skeleton of g with no blocks."""
    return MarkedGraph(nodes=g.nodes, skeleton=g.skeleton, blocked=frozenset())


# ---------------------------------------------------------------------------
# rules R1-R4, drawn by a worklist


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


def _r3_fires(
    adj: Mapping[NodeId, frozenset[NodeId]],
    blocked: Container[tuple[NodeId, NodeId]],
    a: NodeId,
    b: NodeId,
) -> bool:
    """R3 at the end (a, b): a ~ b closes a chordless cycle
    a ~ v1 ~ ... ~ vk ~ b (k >= 1) whose every edge, vk ~ b included, is
    blocked at its end nearer a.  k = 1 is a common neighbor; k >= 2 is asked
    as a walk."""
    return any((a, w) in blocked and (w, b) in blocked for w in adj[a] & adj[b]) or (
        _path_exists(adj, a, b, lambda u, w: (u, w) in blocked, lambda w: (w, b) in blocked)
    )


def _r2_from(adj, t, blocked, pending):
    """R2 with a pending block (u, v) as its antecedent: block (v, c) for
    each c ~ v not adjacent to u, unless u ~ v ~ c is a triplex."""
    return {
        (v, c)
        for u, v in pending
        for c in adj[v] - adj[u]
        if c != u and (v, pair(u, c)) not in t
    }


def _r4_from(adj, t, blocked, pending):
    """R4 with a pending block (u, v) as one of its antecedents (c, b): block
    (a, v) for a common neighbor a of u and v if some blocked (d, v) has
    a ~ d, d not adjacent to u and a no triplex over u and d."""
    return {
        (a, v)
        for u, v in pending
        for a in adj[u] & adj[v]
        if (a, v) not in blocked
        and any(
            d != u and (d, v) in blocked and (a, pair(u, d)) not in t
            for d in (adj[v] & adj[a]) - adj[u]
        )
    }


def _blocked_reach(adj, blocked, starts, forward):
    """Nodes reached from `starts` along blocked steps (x, w), or backwards
    along them with `forward` false."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w not in seen and ((x, w) if forward else (w, x)) in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def _r3_from(adj, t, blocked, pending):
    """R3 at every unblocked end (a, b) whose cycle can use a pending block
    (u, v): its steps run from a along blocked steps to u, and on from v to
    b, so a is found walking backwards from the pending tails and b walking
    forwards from the pending heads."""
    heads = _blocked_reach(adj, blocked, {v for _, v in pending}, forward=True)
    return {
        (a, b)
        for a in _blocked_reach(adj, blocked, {u for u, _ in pending}, forward=False)
        for b in adj[a] & heads
        if (a, b) not in blocked and _r3_fires(adj, blocked, a, b)
    }


_TRIGGERS = {"R2": _r2_from, "R3": _r3_from, "R4": _r4_from}


def apply_rules_R(
    m: MarkedGraph,
    t: TriplexKeys,
    rules: Sequence[str] = RULE_NAMES,
    new: Iterable[tuple[NodeId, NodeId]] | None = None,
) -> MarkedGraph:
    """Least fixpoint of the selected rules.

    The rules only add blocks and never invalidate each other's antecedents,
    so the fixpoint does not depend on application order.  `new` names the
    blocks of `m` whose consequences have not been drawn yet: the caller
    promises that the rest of `m.blocked` is closed under `rules`.  `None`
    means every block of `m`, plus the R1 seeds from `t`.  Each round draws
    the consequences of the pending blocks against the current marks, adds
    them at once and makes the ones not yet present the next pending set.
    """
    unknown = set(rules) - set(RULE_NAMES)
    if unknown:
        raise ValueError(f"unknown rules {sorted(unknown)}")
    adj = m.adjacency
    blocked = set(m.blocked)
    if new is None:
        if "R1" in rules:
            blocked.update(end for b, (a, c) in t for end in ((a, b), (c, b)))
        pending = set(blocked)
    else:
        pending = set(new)
        if not pending <= blocked:
            raise ValueError(f"new blocks {sorted(pending - blocked)} are not blocks of m")
    triggers = [_TRIGGERS[r] for r in rules if r != "R1"]
    while pending:
        found = set()
        for draw in triggers:
            found |= draw(adj, t, blocked, pending)
        pending = found - blocked
        blocked |= pending
    return m.with_blocks(blocked)


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
    double-blocking of long chordless plain cycles; R2-R4 fixpoint drawn from
    the double-blocking additions alone (R1 can no longer fire there, and the
    rest is already closed); finalization of the marks into a chain graph.  The
    marks are returned as well so strong-edge labeling can resume from them.
    """
    t = _triplex_keys(g)
    fixpoint = apply_rules_R(unmarked_skeleton(g), t, rules=RULE_NAMES)
    m = double_block_chordless_cycles(fixpoint)
    m = apply_rules_R(m, t, rules=("R2", "R3", "R4"), new=m.blocked - fixpoint.blocked)
    return EssentialGraphResult(graph=m.finalize(), marks=m, triplexes=t)
