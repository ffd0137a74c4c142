"""Essential-graph construction via the triplex set and end-block rules.

The working state is a skeleton whose edge ends carry *blocks*.  A block at
the end of an edge means the edge can never receive an arrowhead there, so an
edge blocked at exactly one end finalizes to an arrow out of that end and an
edge blocked at both ends (or at neither) finalizes undirected.  The rules
R1-R4 only ever add blocks, which makes their fixpoint order-independent.

R1, R2 and R4 read the input graph's triplex set where the paper asks whether
a common neighbor b of non-adjacent a and c lies in a set separating them:
b lies in every such set exactly when a ~ b ~ c is not a triplex.

The fixpoint is drawn by a worklist: once the rest of the marks is closed,
it re-examines only the instances that the new blocks can fire, and that
misses none.  R1 reads no block, so its instances are seeds.  R2 and R4 read
a new block (u, v) as an antecedent: R2's (a, b) is (u, v), and R4's (c, b)
is (u, v) with (d, b) among the blocks already there.  Their rounds run until
one adds nothing; then R3 is drawn once, over every block added since its
last pass, and what it finds seeds the next rounds.  R3 at (a, b) needs
blocked steps a, v1, ..., vk, b.  The last pass found every instance whose
steps were all blocked then, so a new instance has among its steps a block
(u, v) added since.  Its steps then run from a to u and from v to b, so a
and b are found by one walk each over the blocked steps, backwards from the
added tails and forwards from the added heads; each candidate pair is then
checked on its own, so mixing the ends of different blocks only widens the
candidates.  The rules are monotone, so drawing an R3 instance some rounds
after the block that enabled it changes no block of the least fixpoint.
`_close_blocks` yields each round's new blocks as it draws them.  Blocks
only grow, so whatever a caller reads off the masks after some round still
holds at the fixpoint: `strong` stops each re-blocked copy at the round that
destroys a pretriplex, and the later of the pretriplex's two new blocks
finds it (the argument is in `strong`'s docstring).

`essential_graph` runs on positions from the graph's index to the final
marks: `equivalence._triplex_masks` reads the triplex masks off the index,
their keys are the R1 seeds, and one pair of mask lists carries the
fixpoint, the double-blocking and the second fixpoint.  `strong`'s
re-blocked copies call the same internals, and so do the tests' name-level
wrappers (`tests/support.py`).

`essential_graph` also holds one member of the class, g, and every block
it places holds in every member (that is what R1-R4 and double-blocking
guarantee), g included: g has no arrowhead at a blocked end.  So a blocked
step (u, v) is u -> v or u -- v in g, and blocked steps a, v1, ..., vk, b
are a semidirected path of g; with b -> a in g they would close a
semidirected cycle, which a chain graph has none of.  R3 therefore never
fires at an end (a, b) with b -> a in g, and `essential_graph`'s R3 passes
look only at the b in `ends[a] = adj[a] & ~pa[a]`, read off g's index.
Marks that need not be sound for g keep the unrestricted R3 (`ends`
defaults to `adj`), such as the re-blocked copies of `strong`.  The result
keeps the marks and the triplex masks; its `graph` is the marks finalized
when first read, by `graphs._oriented` with no loose edges, so
`ampcg --format json eg`, which prints the marks, builds no chain graph.

The engine works on integer masks, and they are `MarkedGraph`'s state.  Its
`index` is the graph's own `GraphIndex`, shared by every copy: the nodes in
sorted order and one adjacency mask per node, adj[i].  The blocks are two
tuples of masks, out[i] (the w with (i, w) blocked) and inn[w] (the i with
(i, w) blocked), and `_block` places every block in both: the R1 seeds, each
round's R2-R4 finds and the double-blocking.  The triplex set becomes
tri[b][a], the mask of the c with a ~ b ~ c a triplex.  A pending block
(u, v) then fires R2 at every c in adj[v] & ~adj[u] & ~bit(u) & ~tri[v][u],
and R4 at every a in adj[u] & adj[v] & ~inn[v] for which some d lies in
adj[v] & adj[a] & ~adj[u] & ~bit(u) & inn[v] & ~tri[a][u].  R3's two walks
and `_path_exists` advance a whole frontier mask per step.  The name sets
`nodes`, `skeleton` and `blocked` are views derived from the masks.

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
* S3 reads R2-R4-closed marks, so the same shortcut applies; it keeps the
  last step.  `label_strong` takes an `EssentialGraphResult`, whose marks
  are closed by construction, since the R3 ends skipped there fire nothing;
  with `check_invariants` it re-closes them to check this
  (`strong._check_line6_fixpoint`).
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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .equivalence import TriplexKeys, _triplex_keys, _triplex_masks
from .graphs import (
    ChainGraph,
    GraphIndex,
    Masks,
    NodeId,
    _edges,
    _oriented,
    _positions,
    _reach,
    _step,
)


@dataclass(frozen=True)
class MarkedGraph:
    """A skeleton with per-edge-end block marks, held as masks.

    `index` is the graph's `GraphIndex`: it numbers the nodes in sorted
    order and gives each its adjacency mask.  out[i] masks the w with the
    edge i ~ w blocked at i, and inn[w] the same blocks seen from w.  Copies
    share `index`, and two marked graphs are equal when their indexes and
    masks agree.  Those three fields are all it holds.
    """

    index: GraphIndex
    out: Masks
    inn: Masks

    @cached_property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self.index.nodes)

    @cached_property
    def skeleton(self) -> frozenset[tuple[NodeId, NodeId]]:
        """All edges as `pair()`-ordered names."""
        names = self.index.nodes
        return frozenset((names[i], names[w]) for i, w in _edges(self.index.adj))

    @cached_property
    def blocked(self) -> frozenset[tuple[NodeId, NodeId]]:
        """The (end, other) pairs whose edge {end, other} carries a block at
        `end`."""
        names = self.index.nodes
        return frozenset((names[i], names[w]) for i, w in _positions(self.out))

    def finalize(self) -> ChainGraph:
        """Orient singly blocked edges out of their blocked end; rest undirected."""
        return self._finalized

    @cached_property
    def _finalized(self) -> ChainGraph:
        none = (0,) * len(self.out)
        return _oriented(self.index, self.out, self.inn, none, ())


# ---------------------------------------------------------------------------
# rules R1-R4 on masks, drawn by a worklist


def _seed_r1(
    tri: Sequence[dict[int, int]], out: list[int], inn: list[int]
) -> list[tuple[int, int]]:
    """Add to `out`/`inn` R1's block (a, b) for every a that flanks a
    triplex at b; return the (end, other) positions not blocked before."""
    return _block(out, inn, [(a, b) for b, at in enumerate(tri) for a in at])


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
    r4: bool,
    ends: Sequence[int] | None = None,
) -> Iterator[list[tuple[int, int]]]:
    """Add to `out`/`inn` every block R2, R3 and, with `r4`, R4 draw from
    the `pending` blocks and their consequences, yielding each round's added
    (end, other) positions once they are in the masks; the rounds end with
    one that adds nothing.  The other blocks must be closed already.

    Each round draws what R2 (and R4) fire from the pending blocks against the
    current marks, adds it at once and makes the blocks not yet present the
    next pending list.  When a round adds nothing, R3 re-checks the unblocked
    ends (a, b), b in `ends[a]` (default `adj[a]`), with a reaching a tail
    and b reached from a head, along blocked steps, of any block pending
    since its last pass; its new blocks are the next pending list.

    The rounds are drawn lazily: a caller that needs the fixpoint drains
    them, and one that stops early leaves the masks part-closed.
    """
    tails = heads = 0
    while pending:
        found = []
        for u, v in pending:
            nu = adj[u] | 1 << u
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
        pending = _block(out, inn, found)
        if not pending:
            found = _r3_finds(adj, out, inn, tails, heads, adj if ends is None else ends)
            pending = _block(out, inn, found)
            tails = heads = 0
        yield pending


def _block(out: list[int], inn: list[int], found: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Block the (end, other) positions in `found`; return those that were
    not blocked before."""
    new = []
    for i, w in found:
        if not out[i] >> w & 1:
            out[i] |= 1 << w
            inn[w] |= 1 << i
            new.append((i, w))
    return new


def _r3_finds(
    adj: Sequence[int],
    out: Sequence[int],
    inn: Sequence[int],
    tails: int,
    heads: int,
    ends: Sequence[int],
) -> list[tuple[int, int]]:
    """The unblocked ends (a, b), b in `ends[a]`, R3 fires at, with a
    reaching a node of `tails` and b reached from a node of `heads` along
    blocked steps."""
    found = []
    heads = _reach(out, heads)
    x = _reach(inn, tails)
    while x:
        low = x & -x
        a = low.bit_length() - 1
        x ^= low
        y = ends[a] & heads & ~out[a]
        while y:
            bit = y & -y
            b = bit.bit_length() - 1
            y ^= bit
            if adj[a] & adj[b] & out[a] & inn[b] or _path_exists(adj, out, a, b, inn[b]):
                found.append((a, b))
    return found


def _one_end_blocked(m: MarkedGraph) -> list[tuple[int, int]]:
    """Every (x, y), as positions, with the edge blocked at x only, in sorted
    edge order.  An edge blocked at one end shows in `o ^ n` at both of its
    nodes, so those masks are symmetric."""
    out = m.out
    return [
        (i, w) if out[i] >> w & 1 else (w, i)
        for i, w in _edges([o ^ n for o, n in zip(out, m.inn)])
    ]


def _double_block(adj: Sequence[int], out: list[int], inn: list[int]) -> list[tuple[int, int]]:
    """Block both ends, in `out`/`inn`, of every plain edge a ~ b with an
    all-plain walk around it; return the added (end, other) positions.
    The walks read the plain edges as they were on entry."""
    plain = [a & ~o & ~n for a, o, n in zip(adj, out, inn)]
    found = []
    for a, b in _edges(plain):
        if _path_exists(adj, plain, a, b, plain[b]):
            found += ((a, b), (b, a))
    return _block(out, inn, found)


def _doubly_blocked(m: MarkedGraph) -> frozenset[tuple[NodeId, NodeId]]:
    """The edges of `m` blocked at both ends, as `pair()`-ordered names."""
    names = m.index.nodes
    doubly = _edges([o & n for o, n in zip(m.out, m.inn)])
    return frozenset((names[i], names[w]) for i, w in doubly)


@dataclass(frozen=True, eq=False)
class EssentialGraphResult:
    """The essential graph's pre-finalization marks, which `graph` finalizes
    on first read.

    `_tri` holds the triplex masks the marks were closed under;
    `strong.label_strong` takes the whole result and reads both.
    """

    marks: MarkedGraph
    _tri: list[dict[int, int]] = field(repr=False)

    @property
    def graph(self) -> ChainGraph:
        """The essential graph: the marks finalized on first read, then
        cached on the marks."""
        return self.marks.finalize()

    @cached_property
    def triplexes(self) -> TriplexKeys:
        """The triplex set of the class, read off the triplex masks."""
        return _triplex_keys(self.marks.index, self._tri)

    @cached_property
    def strong_undirected(self) -> frozenset[tuple[NodeId, NodeId]]:
        """The strong undirected edges: the doubly blocked edges of the marks.
        Finding the strong arrows takes `strong.label_strong`."""
        return _doubly_blocked(self.marks)


def essential_graph(g: ChainGraph) -> EssentialGraphResult:
    """Construct the essential graph of the equivalence class of g.

    Pipeline: triplex masks of g; their R1 seeds on the unmarked skeleton;
    R1-R4 fixpoint; double-blocking of long chordless plain cycles; R2-R4
    fixpoint drawn from the double-blocking additions alone (R1 can no longer
    fire there, and the rest is already closed).  R3 skips the ends g's own
    arrows rule out (see the module docstring).  The marks are returned so
    strong-edge labeling can resume from them; the chain graph is finalized
    from them when `graph` is first read.
    """
    index = g.index
    adj, pa = index.adj, index.pa
    ends = [a & ~p for a, p in zip(adj, pa)]
    tri = _triplex_masks(index)
    out, inn = [0] * len(adj), [0] * len(adj)
    for _ in _close_blocks(adj, tri, out, inn, _seed_r1(tri, out, inn), r4=True, ends=ends):
        pass
    added = _double_block(adj, out, inn)
    for _ in _close_blocks(adj, tri, out, inn, added, r4=True, ends=ends):
        pass
    return EssentialGraphResult(MarkedGraph(index, tuple(out), tuple(inn)), tri)
