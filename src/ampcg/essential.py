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

The engine works on integer masks.  `MarkedGraph.index` numbers the nodes in
sorted order and holds one adjacency mask per node, adj[i]; `unmarked_skeleton`
takes both from the graph's own `ChainGraph.index`.  The blocks are two lists
of masks, out[i] (the w with (i, w) blocked) and inn[w] (the i with (i, w)
blocked), and the triplex set becomes tri[b][a], the mask of the c with
a ~ b ~ c a triplex.  A pending block (u, v) then fires R2 at every c
in adj[v] & ~adj[u] & ~bit(u) & ~tri[v][u], and R4 at every a in
adj[u] & adj[v] & ~inn[v] for which some d lies in
adj[v] & adj[a] & ~adj[u] & ~bit(u) & inn[v] & ~tri[a][u].  R3's two walks
and `_path_exists` advance a whole frontier mask per step.  `blocked` stays
the public frozenset; it and the masks are converted only where a public
function takes or returns a `MarkedGraph`.

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
from typing import Iterable, Sequence

from .equivalence import TriplexKeys, triplexes
from .graphs import ChainGraph, GraphIndex, Masks, NodeId, NodeIndex

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

    @property
    def sorted_nodes(self) -> tuple[NodeId, ...]:
        return self.index.nodes

    @cached_property
    def adjacency(self) -> dict[NodeId, frozenset[NodeId]]:
        adj: dict[NodeId, set[NodeId]] = {n: set() for n in self.nodes}
        for a, b in self.skeleton:
            adj[a].add(b)
            adj[b].add(a)
        return {n: frozenset(s) for n, s in adj.items()}

    @cached_property
    def index(self) -> NodeIndex:
        nodes = tuple(sorted(self.nodes))
        pos = {n: i for i, n in enumerate(nodes)}
        adj = [0] * len(nodes)
        for a, b in self.skeleton:
            i, j = pos[a], pos[b]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return NodeIndex(nodes, pos, tuple(adj))

    @cached_property
    def block_masks(self) -> tuple[Masks, Masks]:
        """(out, inn): out[i] masks the w with (i, w) blocked, inn[w] the i."""
        pos = self.index.pos
        out = [0] * len(pos)
        inn = [0] * len(pos)
        for a, b in self.blocked:
            i, w = pos[a], pos[b]
            out[i] |= 1 << w
            inn[w] |= 1 << i
        return tuple(out), tuple(inn)

    def is_blocked(self, end: NodeId, other: NodeId) -> bool:
        return (end, other) in self.blocked

    def plain_edge(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) not in self.blocked and (v, u) not in self.blocked

    def finalize(self) -> ChainGraph:
        """Orient singly blocked edges out of their blocked end; rest undirected."""
        return self._finalized

    @cached_property
    def _finalized(self) -> ChainGraph:
        """One pass over the edges in position order: an edge blocked at one
        end becomes an arrow out of it, any other edge an undirected pair.
        The same pass builds the graph's index; the constructor still runs
        every check on it."""
        index = self.index
        names, adj = index.nodes, index.adj
        out, inn = self.block_masks
        pa = [0] * len(names)
        ne = [0] * len(names)
        directed = []
        undirected = []
        for i, u in enumerate(names):
            o, n = out[i], inn[i]
            x = adj[i] >> (i + 1) << (i + 1)
            while x:
                low = x & -x
                w = low.bit_length() - 1
                x ^= low
                if not (o ^ n) & low:
                    ne[i] |= low
                    ne[w] |= 1 << i
                    undirected.append((u, names[w]))
                elif o & low:
                    pa[w] |= 1 << i
                    directed.append((u, names[w]))
                else:
                    pa[i] |= low
                    directed.append((names[w], u))
        return ChainGraph._indexed(
            self.nodes,
            frozenset(directed),
            frozenset(undirected),
            GraphIndex(names, index.pos, adj, tuple(pa), tuple(ne)),
        )

    def with_blocks(self, additions: Iterable[tuple[NodeId, NodeId]]) -> "MarkedGraph":
        """A copy with `additions` blocked too, sharing this skeleton's
        `index` and (once built) `adjacency` and triplex masks."""
        out = MarkedGraph(self.nodes, self.skeleton, self.blocked | frozenset(additions))
        out.__dict__["index"] = self.index
        for name in ("adjacency", "_tri"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    def _triplex_masks(self, t: TriplexKeys) -> list[dict[int, int]]:
        """`_triplex_masks(self.index, t)`, built once along a chain of
        copies that all ask with the same `t` object."""
        cached = self.__dict__.get("_tri")
        if cached is None or cached[0] is not t:
            cached = self.__dict__["_tri"] = (t, _triplex_masks(self.index, t))
        return cached[1]

    def _with_masks(
        self, added: Iterable[tuple[int, int]], out: list[int], inn: list[int]
    ) -> "MarkedGraph":
        """`with_blocks` for blocks given by position, with the copy's masks."""
        names = self.index.nodes
        h = self.with_blocks((names[i], names[w]) for i, w in added)
        h.__dict__["block_masks"] = (tuple(out), tuple(inn))
        return h


def unmarked_skeleton(g: ChainGraph) -> MarkedGraph:
    """The skeleton of g with no blocks, indexed by g's positions and
    adjacency masks."""
    m = MarkedGraph(nodes=g.nodes, skeleton=g.skeleton, blocked=frozenset())
    index = g.index
    m.__dict__["index"] = NodeIndex(index.nodes, index.pos, index.adj)
    return m


# ---------------------------------------------------------------------------
# rules R1-R4 on masks, drawn by a worklist


def _triplex_masks(index: NodeIndex, t: TriplexKeys) -> list[dict[int, int]]:
    """tri[b][a]: the mask of the c with a ~ b ~ c a triplex of `t`."""
    pos = index.pos
    tri: list[dict[int, int]] = [{} for _ in pos]
    for b, (a, c) in t:
        at = tri[pos[b]]
        i, k = pos[a], pos[c]
        at[i] = at.get(i, 0) | 1 << k
        at[k] = at.get(k, 0) | 1 << i
    return tri


def _step(step: Sequence[int], frontier: int) -> int:
    """The union of the step masks of the nodes in `frontier`."""
    reached = 0
    while frontier:
        low = frontier & -frontier
        reached |= step[low.bit_length() - 1]
        frontier ^= low
    return reached


def _reach(step: Sequence[int], seen: int) -> int:
    """The nodes reached from the mask `seen` along the step masks."""
    frontier = seen
    while frontier:
        frontier = _step(step, frontier) & ~seen
        seen |= frontier
    return seen


def _path_exists(adj: Sequence[int], step: Sequence[int], a: int, b: int, last: int) -> bool:
    """Is there a walk a, v1, ..., vk, b (a ~ b, k >= 2) along the `step`
    masks with vk in `last`, v1 not in N[b], vk not in N[a] and v2 .. vk-1
    outside N[a] | N[b]?  The module docstring says when such a walk is
    chordless."""
    goals = adj[b] & ~adj[a] & ~(1 << a) & last
    if not goals:
        return False
    near = adj[a] | adj[b]
    seen = frontier = step[a] & ~adj[b] & ~(1 << b)
    while frontier:
        reached = _step(step, frontier)
        if reached & goals:
            return True
        frontier = reached & ~near & ~seen
        seen |= frontier
    return False


def _close_blocks(
    adj: Sequence[int],
    tri: Sequence[dict[int, int]],
    out: list[int],
    inn: list[int],
    pending: list[tuple[int, int]],
    rules: Sequence[str],
) -> list[tuple[int, int]]:
    """Add to `out`/`inn` every block the `rules` (of R2-R4) draw from the
    `pending` blocks and their consequences; return the added (end, other)
    positions.  The other blocks must be closed already.

    Each round draws what the pending blocks can fire against the current
    marks, adds it at once and makes the blocks not yet present the next
    pending list: R2 and R4 read a pending (u, v) as an antecedent, and R3
    re-checks the unblocked ends (a, b) with a reaching a pending tail and b
    reached from a pending head along blocked steps.
    """
    r2, r3, r4 = "R2" in rules, "R3" in rules, "R4" in rules
    added: list[tuple[int, int]] = []
    while pending:
        found = []
        tails = heads = 0
        for u, v in pending:
            nu = adj[u] | 1 << u
            if r2:
                x = adj[v] & ~nu & ~tri[v].get(u, 0) & ~out[v]
                while x:
                    low = x & -x
                    found.append((v, low.bit_length() - 1))
                    x ^= low
            if r4:
                ds = adj[v] & ~nu & inn[v]
                x = adj[u] & adj[v] & ~inn[v] if ds else 0
                while x:
                    low = x & -x
                    a = low.bit_length() - 1
                    if ds & adj[a] & ~tri[a].get(u, 0):
                        found.append((a, v))
                    x ^= low
            tails |= 1 << u
            heads |= 1 << v
        if r3:
            heads = _reach(out, heads)
            x = _reach(inn, tails)
            while x:
                low = x & -x
                a = low.bit_length() - 1
                x ^= low
                y = adj[a] & heads & ~out[a]
                while y:
                    bit = y & -y
                    b = bit.bit_length() - 1
                    y ^= bit
                    if adj[a] & adj[b] & out[a] & inn[b] or _path_exists(
                        adj, out, a, b, inn[b]
                    ):
                        found.append((a, b))
        pending = []
        for i, w in found:
            if not out[i] >> w & 1:
                out[i] |= 1 << w
                inn[w] |= 1 << i
                pending.append((i, w))
        added += pending
    return added


def _one_end_blocked(m: MarkedGraph) -> list[tuple[int, int]]:
    """Every (x, y), as positions, with the edge blocked at x only, in sorted
    edge order."""
    out, inn = m.block_masks
    edges = []
    for i, (o, n) in enumerate(zip(out, inn)):
        x = ((o ^ n) >> (i + 1)) << (i + 1)
        while x:
            low = x & -x
            w = low.bit_length() - 1
            edges.append((i, w) if o & low else (w, i))
            x ^= low
    return edges


def _positions(masks: Sequence[int]) -> list[tuple[int, int]]:
    """Every (i, w) with bit w set in masks[i]."""
    found = []
    for i, x in enumerate(masks):
        while x:
            low = x & -x
            found.append((i, low.bit_length() - 1))
            x ^= low
    return found


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
    means every block of `m`, plus the R1 seeds from `t`.
    """
    unknown = set(rules) - set(RULE_NAMES)
    if unknown:
        raise ValueError(f"unknown rules {sorted(unknown)}")
    index = m.index
    pos = index.pos
    out, inn = map(list, m.block_masks)
    seeds = []
    if new is None:
        if "R1" in rules:
            for b, (a, c) in t:
                w = pos[b]
                for i in (pos[a], pos[c]):
                    if not out[i] >> w & 1:
                        out[i] |= 1 << w
                        inn[w] |= 1 << i
                        seeds.append((i, w))
        pending = _positions(out)
    else:
        new = set(new)
        if not new <= m.blocked:
            raise ValueError(f"new blocks {sorted(new - m.blocked)} are not blocks of m")
        pending = [(pos[u], pos[v]) for u, v in new]
    added = _close_blocks(index.adj, m._triplex_masks(t), out, inn, pending, rules)
    return m._with_masks(seeds + added, out, inn)


def double_block_chordless_cycles(m: MarkedGraph) -> MarkedGraph:
    """Block both ends of every edge on a chordless all-plain cycle of at
    least four nodes.

    `m` must be an R1-R4 fixpoint, as in `essential_graph`: only there is an
    all-plain walk around an edge (`_path_exists`) as good as such a cycle.
    Snapshot semantics: the edges are found on the input first and then
    double-blocked at once.
    """
    adj = m.index.adj
    out, inn = map(list, m.block_masks)
    plain = [adj[i] & ~out[i] & ~inn[i] for i in range(len(adj))]
    added = []
    for a, b in _positions(plain):
        if a < b and _path_exists(adj, plain, a, b, plain[b]):
            added += [(a, b), (b, a)]
    for i, w in added:
        out[i] |= 1 << w
        inn[w] |= 1 << i
    return m._with_masks(added, out, inn)


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
    t = triplexes(g)
    fixpoint = apply_rules_R(unmarked_skeleton(g), t, rules=RULE_NAMES)
    m = double_block_chordless_cycles(fixpoint)
    m = apply_rules_R(m, t, rules=("R2", "R3", "R4"), new=m.blocked - fixpoint.blocked)
    return EssentialGraphResult(graph=m.finalize(), marks=m, triplexes=t)
