"""Shared corpus builders, oracles and hypothesis strategies for the tests."""

from __future__ import annotations

import heapq
import random
from collections import defaultdict, deque
from dataclasses import replace
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from hypothesis import strategies as st

from ampcg import (
    ChainGraph,
    EquivalenceClass,
    node_names,
    pair,
    random_chain_graph,
    separated,
    triplexes,
    validate_chain_graph,
)
from ampcg.causal import st_nst
from ampcg.equivalence import HEAD, TAIL, UND, TriplexKeys, _is_triplex
from ampcg.errors import (
    DuplicateEdgeError,
    GraphError,
    NotChordalError,
    ParseError,
    SemidirectedCycleError,
)
from ampcg.essential import (
    MarkedGraph,
    _close_blocks,
    _double_block,
    _positions,
    _seed_r1,
)
from ampcg.graphs import (
    GraphIndex,
    _check_nodes,
    _is_clique,
    _mcs_ranks,
    _oriented,
    is_valid_name,
)
from ampcg.oracle import _split_candidates
from ampcg.separation import _check_query, route_is_open
from ampcg.transform import _split_result


def cg(nodes, directed=(), undirected=()) -> ChainGraph:
    """Shorthand constructor for small literal graphs."""
    return validate_chain_graph(nodes, directed, undirected)


# Name helpers: the package reads a graph's edges off its index masks, so
# these keep the oracles on names.


def adjacency(m: MarkedGraph | ChainGraph) -> dict[str, frozenset[str]]:
    """Each node's adjacent nodes, by name."""
    adj: dict[str, set[str]] = {n: set() for n in m.nodes}
    for a, b in m.skeleton:
        adj[a].add(b)
        adj[b].add(a)
    return {n: frozenset(s) for n, s in adj.items()}


def parents(g: ChainGraph) -> dict[str, frozenset[str]]:
    """Each node's parents, by name."""
    out: dict[str, set[str]] = {n: set() for n in g.nodes}
    for u, v in g.directed:
        out[v].add(u)
    return {n: frozenset(s) for n, s in out.items()}


def children(g: ChainGraph) -> dict[str, frozenset[str]]:
    """Each node's children, by name."""
    out: dict[str, set[str]] = {n: set() for n in g.nodes}
    for u, v in g.directed:
        out[u].add(v)
    return {n: frozenset(s) for n, s in out.items()}


def neighbors(g: ChainGraph) -> dict[str, frozenset[str]]:
    """Each node's undirected neighbors, by name."""
    out: dict[str, set[str]] = {n: set() for n in g.nodes}
    for a, b in g.undirected:
        out[a].add(b)
        out[b].add(a)
    return {n: frozenset(s) for n, s in out.items()}


def undirected_components(nodes, undirected) -> list[frozenset[str]]:
    """Connected components of the undirected subgraph, sorted by least node,
    by depth-first search over name sets: an oracle for the component search
    of `graphs._component_order`."""
    nbr: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in undirected:
        nbr[a].add(b)
        nbr[b].add(a)
    seen: set[str] = set()
    comps = []
    for start in sorted(nbr):
        if start in seen:
            continue
        stack, comp = [start], {start}
        seen.add(start)
        while stack:
            cur = stack.pop()
            for w in nbr[cur]:
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


# Name-level entry points to the package's mask engine, and generators, that
# only the tests call.


def with_blocks(m: MarkedGraph, additions: Iterable[tuple[str, str]]) -> MarkedGraph:
    """A copy of `m` with the (end, other) pairs in `additions` blocked too."""
    pos = m.index.pos
    out, inn = list(m.out), list(m.inn)
    for a, b in additions:
        i, w = pos[a], pos[b]
        out[i] |= 1 << w
        inn[w] |= 1 << i
    return replace(m, out=tuple(out), inn=tuple(inn))


def unmarked_skeleton(g: ChainGraph) -> MarkedGraph:
    """The skeleton of g with no blocks, on g's own index."""
    none = (0,) * len(g.nodes)
    return MarkedGraph(g.index, none, none)


RULE_NAMES = ("R1", "R2", "R3", "R4")


def _key_masks(index: GraphIndex, t: TriplexKeys) -> list[dict[int, int]]:
    """tri[b][a]: the mask of the c with a ~ b ~ c a triplex of `t`, the
    name-key reference for the masks `equivalence._triplex_masks` reads off
    a graph's index."""
    pos = index.pos
    tri: list[dict[int, int]] = [{} for _ in pos]
    for b, (a, c) in t:
        at = tri[pos[b]]
        i, k = pos[a], pos[c]
        at[i] = at.get(i, 0) | 1 << k
        at[k] = at.get(k, 0) | 1 << i
    return tri


def apply_rules_R(
    m: MarkedGraph,
    t: TriplexKeys,
    rules: Sequence[str] = RULE_NAMES,
    new: Iterable[tuple[str, str]] | None = None,
) -> MarkedGraph:
    """Least fixpoint of the selected rules, by the engine's worklist.

    The rules only add blocks and never invalidate each other's antecedents,
    so the fixpoint does not depend on application order.  `new` names the
    blocks of `m` whose consequences have not been drawn yet: the caller
    promises that the rest of `m.blocked` is closed under `rules`.  `None`
    means every block of `m`, plus the R1 seeds from `t`.

    Besides R1, the engine closes under R2-R3 or R2-R4 (`_close_blocks`'
    `r4`), or under nothing, so those are the rule sets taken.
    """
    unknown = set(rules) - set(RULE_NAMES)
    if unknown:
        raise ValueError(f"unknown rules {sorted(unknown)}")
    closing = set(rules) - {"R1"}
    if closing not in (set(), {"R2", "R3"}, {"R2", "R3", "R4"}):
        raise ValueError(f"the engine does not close under {sorted(closing)} alone")
    out, inn = list(m.out), list(m.inn)
    tri = _key_masks(m.index, t)
    if new is None:
        if "R1" in rules:
            _seed_r1(tri, out, inn)
        pending = _positions(out)
    else:
        new = set(new)
        if not new <= m.blocked:
            raise ValueError(f"new blocks {sorted(new - m.blocked)} are not blocks of m")
        pos = m.index.pos
        pending = [(pos[u], pos[v]) for u, v in new]
    if closing:
        for _ in _close_blocks(m.index.adj, tri, out, inn, pending, r4="R4" in closing):
            pass
    return replace(m, out=tuple(out), inn=tuple(inn))


def double_block_chordless_cycles(m: MarkedGraph) -> MarkedGraph:
    """Block both ends of every edge on a chordless all-plain cycle of at
    least four nodes, by the engine's `_double_block`.

    `m` must be an R1-R4 fixpoint, as in `essential_graph`: only there is an
    all-plain walk around an edge (`_path_exists`) as good as such a cycle.
    Snapshot semantics: the edges are found on the input first and then
    double-blocked at once.
    """
    out, inn = list(m.out), list(m.inn)
    _double_block(m.index.adj, out, inn)
    return replace(m, out=tuple(out), inn=tuple(inn))


def is_complete(g: ChainGraph, nodes) -> bool:
    """True when every pair in the set is joined by an undirected edge."""
    ns = sorted(frozenset(nodes))
    _check_nodes(g.nodes, ns)
    return _is_clique(g.index.ne, g.index.mask_of(ns))


def is_simplicial(g: ChainGraph, v) -> bool:
    """True when the neighbors of v form a complete set."""
    _check_nodes(g.nodes, (v,))
    ne = g.index.ne
    return _is_clique(ne, ne[g.index.pos[v]])


def _require_undirected(g: ChainGraph) -> None:
    if g.directed:
        raise ValueError("operation requires a purely undirected graph")


def is_chordal(g: ChainGraph) -> bool:
    """Chordality test by the engine's maximum cardinality search."""
    _require_undirected(g)
    try:
        _mcs_ranks(g.index.ne)
    except NotChordalError:
        return False
    return True


class TailNotCompleteError(GraphError):
    """The requested elimination tail is not a complete set."""


def perfect_elimination_ending_with(g: ChainGraph, tail) -> tuple[str, ...]:
    """A perfect elimination ordering whose final elements are exactly `tail`.

    The reverse of a maximum cardinality search that visits the complete
    `tail` first, last element first (see `graphs._mcs_ranks`).
    NotChordalError comes before TailNotCompleteError when both apply.
    """
    _require_undirected(g)
    tail = tuple(tail)
    _check_nodes(g.nodes, tail)
    if len(set(tail)) != len(tail):
        raise TailNotCompleteError("tail contains repeated nodes")
    index = g.index
    if not is_complete(g, tail):
        _mcs_ranks(index.ne)  # raises first on a graph that is not chordal
        raise TailNotCompleteError(f"tail {sorted(tail)} is not complete")
    rank = _mcs_ranks(index.ne, first=[index.pos[v] for v in reversed(tail)])
    return tuple(name for _, name in sorted(zip(rank, index.nodes), reverse=True))


def orient_by_mcs(g: ChainGraph, rng: random.Random | None = None) -> ChainGraph:
    """Acyclic, triplex-free orientation of a chordal undirected graph, by the
    engine's `_mcs_ranks` and `_oriented`.

    Nodes are visited by maximum cardinality search and every edge is oriented
    away from the node visited earlier.  Ties are broken lexicographically, or
    uniformly at random when `rng` is given (any node can come first, so any
    single edge can receive either direction across seeds).
    """
    _require_undirected(g)
    ne = g.index.ne
    none = (0,) * len(ne)
    return _oriented(g.index, none, none, ne, _mcs_ranks(ne, rng))


def random_chordal_graph(rng: random.Random, nodes, p_edge: float = 0.35) -> ChainGraph:
    """A random chordal undirected graph via elimination fill-in."""
    nodes = list(nodes)
    rng.shuffle(nodes)
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in combinations(sorted(nodes), 2):
        if rng.random() < p_edge:
            adj[a].add(b)
            adj[b].add(a)
    position = {n: i for i, n in enumerate(nodes)}
    for v in nodes:  # triangulate along the elimination order
        later = sorted(w for w in adj[v] if position[w] > position[v])
        for a, b in combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
    undirected = frozenset(
        (a, b) for a, b in combinations(sorted(nodes), 2) if b in adj[a]
    )
    return ChainGraph(
        nodes=frozenset(nodes), directed=frozenset(), undirected=undirected
    )


def all_chain_graphs(nodes) -> list[ChainGraph]:
    """Every valid chain graph over the labeled nodes.

    Generated from the four states (absent / -> / <- / --) per unordered
    pair, filtered for semidirected cycles: 4^(n(n-1)/2) candidates, each
    built and validated.  4 nodes (4096 candidates, 1688 graphs) take about
    0.1 s; 5 nodes (1 048 576 candidates, 142 624 graphs) take 20-40 s.
    """
    nodes = tuple(sorted(nodes))
    pairs = list(combinations(nodes, 2))
    node_set = frozenset(nodes)
    out: list[ChainGraph] = []
    for assignment in product(("", "->", "<-", "--"), repeat=len(pairs)):
        directed = []
        undirected = []
        for (a, b), s in zip(pairs, assignment):
            if s == "->":
                directed.append((a, b))
            elif s == "<-":
                directed.append((b, a))
            elif s == "--":
                undirected.append((a, b))
        try:
            out.append(ChainGraph(node_set, frozenset(directed), frozenset(undirected)))
        except SemidirectedCycleError:
            pass
    return out


def derive_classes(graphs) -> dict[ChainGraph, EquivalenceClass]:
    """Class lookup for an exhaustive corpus, grouped by skeleton + triplexes.

    Independent of enumerate_class: relies only on the definitional grouping
    of all valid orientations of each skeleton.
    """
    by_skeleton = defaultdict(list)
    for g in graphs:
        by_skeleton[(g.nodes, g.skeleton)].append(g)
    lookup: dict[ChainGraph, EquivalenceClass] = {}
    for members in by_skeleton.values():
        by_triplexes = defaultdict(set)
        for m in members:
            by_triplexes[triplexes(m)].add(m)
        for mset in by_triplexes.values():
            cls = EquivalenceClass(members=frozenset(mset))
            for m in mset:
                lookup[m] = cls
    return lookup


def set_flanks(adj, heads, others) -> set[tuple[str, str]]:
    """Non-adjacent pairs {a, c} under the name adjacency `adj`, with a in
    `heads` and c in `heads | others`, by set arithmetic on names: an oracle
    for the mask search `equivalence._flank_masks`."""
    near = heads | others
    return {pair(a, c) for a in heads for c in near - adj[a] if c != a}


def set_triplexes(g: ChainGraph):
    """Every (middle, sorted flank pair) key, by set arithmetic: an oracle for
    `triplexes`."""
    adj, pa, ne = adjacency(g), parents(g), neighbors(g)
    return frozenset((b, fl) for b in g.nodes for fl in set_flanks(adj, pa[b], ne[b]))


def set_locally_valid(labeling, x, s) -> bool:
    """`locally_valid` by set arithmetic: orienting s -> x adds no flank pair
    at x that the essential graph lacks."""
    eg = labeling.graph
    adj, pa = adjacency(eg), parents(eg)[x]
    return set_flanks(adj, pa | frozenset(s), st_nst(labeling, x).st) <= set_flanks(
        adj, pa, neighbors(eg)[x]
    )


def set_component_order(nodes, directed, undirected):
    """Chain components in topological order, or None on a semidirected
    cycle, by Kahn's algorithm over frozensets with a (least node, index)
    heap: an oracle for `graphs._component_order`."""
    comps = undirected_components(nodes, undirected)
    comp_index = {n: i for i, comp in enumerate(comps) for n in comp}
    succ = {i: set() for i in range(len(comps))}
    indeg = {i: 0 for i in range(len(comps))}
    for u, v in directed:
        cu, cv = comp_index[u], comp_index[v]
        if cu == cv:
            return None
        if cv not in succ[cu]:
            succ[cu].add(cv)
            indeg[cv] += 1
    heap = [(min(comps[i]), i) for i in indeg if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(comps[i])
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (min(comps[j]), j))
    return order if len(order) == len(comps) else None


def _simplicial_in(adj: dict[str, set[str]], v: str) -> bool:
    nbrs = sorted(adj[v])
    return all(b in adj[a] for a, b in combinations(nbrs, 2))


def _eliminate(g: ChainGraph) -> list[str] | None:
    """Remove simplicial nodes, least name first, until none is left; the
    removal order, or None when no node qualifies: a set-based oracle for
    the chordality check of `graphs._mcs_ranks`."""
    adj = {n: set(s) for n, s in adjacency(g).items()}
    order: list[str] = []
    while adj:
        v = next((n for n in sorted(adj) if _simplicial_in(adj, n)), None)
        if v is None:
            return None
        order.append(v)
        for w in adj.pop(v):
            adj[w].discard(v)
    return order


def set_orient_by_mcs(g: ChainGraph, rng: random.Random | None = None) -> ChainGraph:
    """`orient_by_mcs` by simplicial elimination over name sets, then a
    `max` and a `sorted` over the unvisited nodes per visit: an oracle for
    the bucket-mask search `graphs._mcs_ranks`."""
    if _eliminate(g) is None:
        raise NotChordalError("graph is not chordal")
    adj = adjacency(g)
    weight = {n: 0 for n in g.nodes}
    unmarked = set(g.nodes)
    position: dict[str, int] = {}
    while unmarked:
        best = max(weight[n] for n in unmarked)
        candidates = sorted(n for n in unmarked if weight[n] == best)
        chosen = candidates[0] if rng is None else rng.choice(candidates)
        position[chosen] = len(position)
        unmarked.discard(chosen)
        for w in adj[chosen] & unmarked:
            weight[w] += 1
    directed = frozenset(
        (a, b) if position[a] < position[b] else (b, a) for a, b in g.undirected
    )
    return ChainGraph(nodes=g.nodes, directed=directed, undirected=frozenset())


def _mark_at(g: ChainGraph, node, other) -> str:
    """Mark of the edge {node, other} at `node`."""
    if g.has_directed(other, node):
        return HEAD
    if g.has_directed(node, other):
        return TAIL
    return UND


def set_separated(g: ChainGraph, xs, ys, zs=()) -> bool:
    """`separated` by breadth-first search over (node, entry-mark) states on
    names, asking `_is_triplex` at each passage: a polynomial oracle for the
    three frontier masks of `separation`."""
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    _check_query(g, xs, ys, zs)
    adj = adjacency(g)
    seen: set[tuple[str, str]] = set()
    queue: deque[tuple[str, str]] = deque()

    def push(node, mark) -> None:
        state = (node, mark)
        if state not in seen:
            seen.add(state)
            queue.append(state)

    for x in xs:
        for w in adj[x]:
            if w in ys:
                return False
            push(w, _mark_at(g, w, x))
    while queue:
        node, entry = queue.popleft()
        for w in adj[node]:
            if _is_triplex(entry, _mark_at(g, node, w)) != (node in zs):
                continue
            if w in ys:
                return False
            push(w, _mark_at(g, w, node))
    return True


def open_route_oracle(g: ChainGraph, xs, ys, zs=()) -> bool:
    """Exhaustive search for a Z-open route of at most 3|V|+1 nodes: an
    oracle for `separated`, exponential in |V|.

    The bound is complete: an open route revisiting a
    (node, entry-mark) state can be excised to a shorter open route, so the
    search also skips extensions that repeat a state already on the current
    route.  Every hit is re-checked against the literal definition.
    """
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    _check_query(g, xs, ys, zs)
    bound = 3 * len(g.nodes) + 1
    adj = adjacency(g)

    def dfs(route: list[str], states: frozenset, entry: str | None) -> list[str] | None:
        if len(route) >= bound:
            return None
        last = route[-1]
        for w in sorted(adj[last]):
            if entry is not None:  # `last` becomes interior: its occurrence must pass
                exit_ = _mark_at(g, last, w)
                if _is_triplex(entry, exit_) != (last in zs):
                    continue
            if w in ys:
                return route + [w]
            state = (w, _mark_at(g, w, last))
            if state in states:
                continue
            hit = dfs(route + [w], states | {state}, state[1])
            if hit is not None:
                return hit
        return None

    for start in sorted(xs):
        route = dfs([start], frozenset(), None)
        if route is not None:
            if not route_is_open(g, route, zs):  # cross-check, never expected
                raise AssertionError(f"search returned a closed route {route}")
            return True
    return False


def all_singleton_queries(g: ChainGraph):
    """Every (x, y, z) with singleton x, y and z ranging over the rest."""
    nodes = g.sorted_nodes
    for x, y in combinations(nodes, 2):
        rest = [n for n in nodes if n not in (x, y)]
        for size in range(len(rest) + 1):
            for zs in combinations(rest, size):
                yield x, y, frozenset(zs)


def same_separations(g: ChainGraph, h: ChainGraph) -> bool:
    """Do two equal-skeleton graphs agree on every singleton separation query?"""
    return all(
        separated(g, {x}, {y}, z) == separated(h, {x}, {y}, z)
        for x, y, z in all_singleton_queries(g)
    )


def greedy_maximally_oriented(g: ChainGraph, reverse_order: bool = False) -> ChainGraph:
    """A maximally oriented member by greedy search over all bipartitions.

    Repeatedly applies the first feasible split in a deterministic candidate
    order (reversed with `reverse_order`, which picks a second witness).
    Exponential in the component size; an oracle for `maximally_oriented`.
    """
    current = g
    while True:
        candidates = list(_split_candidates(current))
        if reverse_order:
            candidates.reverse()
        for comp, upper in candidates:
            result = _split_result(current, comp, upper)
            if result is not None:
                current = result
                break
        else:
            return current


# Name helpers over a marked graph's derived views: the engine reads only
# the masks, so these keep the oracles on names.


def is_adjacent(m: MarkedGraph, u, v) -> bool:
    return pair(u, v) in m.skeleton


def plain_edge(m: MarkedGraph, u, v) -> bool:
    """Blocked at neither end."""
    return (u, v) not in m.blocked and (v, u) not in m.blocked


def doubly_blocked(m: MarkedGraph, u, v) -> bool:
    return (u, v) in m.blocked and (v, u) in m.blocked


def singly_blocked(m: MarkedGraph, end, other) -> bool:
    """Blocked at `end` and plain at `other` (finalizes to end -> other)."""
    return (end, other) in m.blocked and (other, end) not in m.blocked


def edges_blocked_at_one_end(m: MarkedGraph) -> list[tuple[str, str]]:
    """All (x, y) with the edge blocked at x only, in sorted edge order."""
    out = []
    for a, b in sorted(m.skeleton):
        if singly_blocked(m, a, b):
            out.append((a, b))
        elif singly_blocked(m, b, a):
            out.append((b, a))
    return out


def s4_s6_closure(m: MarkedGraph, strong) -> set[tuple[str, str]]:
    """The arrows S4-S6 chain from `strong` until stable, minus `strong`, by
    name and from the rule text.  Each rule reads a strong a -> b that `m`
    blocks at a only, and labels an edge `m` blocks at one end only:

    * S4: b -> c, with a and c not adjacent;
    * S5: c -> b, with (c, a) blocked;
    * S6: a -> c, with (b, c) blocked.
    """
    arrows = set(edges_blocked_at_one_end(m))
    closure = set(strong)
    while True:
        found = set()
        for a, b in closure & arrows:
            for c in m.nodes:
                if (b, c) in arrows and not is_adjacent(m, a, c):
                    found.add((b, c))
                if (c, b) in arrows and (c, a) in m.blocked:
                    found.add((c, b))
                if (a, c) in arrows and (b, c) in m.blocked:
                    found.add((a, c))
        if found <= closure:
            return closure - set(strong)
        closure |= found


def set_finalize(m: MarkedGraph) -> ChainGraph:
    """The marks finalized by name: an edge blocked at one end only points
    out of that end, any other edge is undirected."""
    directed = edges_blocked_at_one_end(m)
    undirected = m.skeleton - {pair(u, v) for u, v in directed}
    return ChainGraph(m.nodes, frozenset(directed), undirected)


def chordless_cycle_orders(m: MarkedGraph) -> list[tuple[str, ...]]:
    """Every node order (v0, ..., vk), k >= 2, that walks a chordless cycle
    v0 ~ v1 ~ ... ~ vk ~ v0, once per rotation and direction.

    Brute force over permutations: a node set spans a chordless cycle exactly
    when its induced skeleton has as many edges as nodes and some ordering
    of it is a closed walk.  An oracle for the chordless-path search.
    """
    out = []
    for k in range(3, len(m.nodes) + 1):
        for subset in combinations(sorted(m.nodes), k):
            if sum(is_adjacent(m, u, v) for u, v in combinations(subset, 2)) != k:
                continue
            for order in permutations(subset):
                if all(is_adjacent(m, u, v) for u, v in zip(order, order[1:] + order[:1])):
                    out.append(order)
    return out


def set_path_exists(adj, a, b, step, last) -> bool:
    """Is there a walk a, v1, ..., vk, b (a ~ b, k >= 2) with `step(u, w)`
    on every step, `last(vk)`, v1 not in N[b], vk not in N[a] and
    v2 .. vk-1 outside N[a] | N[b]?  The set-based form of the engine's mask
    walk, kept so the sweep oracle shares no code with `apply_rules_R`."""
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


def r3_fires(m: MarkedGraph, a, b) -> bool:
    """R3 at the end (a, b): a ~ b closes a chordless cycle
    a ~ v1 ~ ... ~ vk ~ b (k >= 1) whose every edge, vk ~ b included, is
    blocked at its end nearer a.  k = 1 is a common neighbor; k >= 2 is asked
    as a walk."""
    adj, blocked = adjacency(m), m.blocked
    return any((a, w) in blocked and (w, b) in blocked for w in adj[a] & adj[b]) or (
        set_path_exists(adj, a, b, lambda u, w: (u, w) in blocked, lambda w: (w, b) in blocked)
    )


# The R1-R4 rules as full scans: each finder yields (rule, additions) for the
# firable instances whose additions are not already present.


def r1_instances(m: MarkedGraph, t):
    for b, (a, c) in sorted(t):
        additions = frozenset({(a, b), (c, b)}) - m.blocked
        if additions:
            yield ("R1", additions)


def r2_instances(m: MarkedGraph, t):
    adj = adjacency(m)
    for a, b in sorted(m.blocked):
        for c in sorted(adj[b] - {a}):
            if is_adjacent(m, a, c) or (b, pair(a, c)) in t:
                continue
            if (b, c) not in m.blocked:
                yield ("R2", frozenset({(b, c)}))


def r3_instances(m: MarkedGraph, t):
    del t
    for u, v in sorted(m.skeleton):
        for a, b in ((u, v), (v, u)):
            if (a, b) not in m.blocked and r3_fires(m, a, b):
                yield ("R3", frozenset({(a, b)}))


def r4_instances(m: MarkedGraph, t):
    adj = adjacency(m)
    for b in sorted(m.nodes):
        for a in sorted(adj[b]):
            if (a, b) in m.blocked:
                continue
            shared = sorted((adj[a] & adj[b]) - {a, b})
            for c, d in combinations(shared, 2):
                if is_adjacent(m, c, d):
                    continue
                if (c, b) in m.blocked and (d, b) in m.blocked and (a, (c, d)) not in t:
                    yield ("R4", frozenset({(a, b)}))
                    break


FINDERS = {"R1": r1_instances, "R2": r2_instances, "R3": r3_instances, "R4": r4_instances}


def sweep_fixpoint(m: MarkedGraph, t, rules=RULE_NAMES, rng=None, finders=FINDERS) -> MarkedGraph:
    """Least fixpoint of the selected rules by full rescans: an oracle for
    `apply_rules_R`.

    Without `rng`, every firable instance of a scan is applied at once; with
    it, one firable instance at a time in random order, which tests that the
    fixpoint does not depend on application order.
    """
    while True:
        instances = [i for r in rules for i in finders[r](m, t)]
        if not instances:
            return m
        if rng is None:
            m = with_blocks(m, (end for _, additions in instances for end in additions))
        else:
            _, additions = rng.choice(sorted(instances, key=lambda i: (i[0], sorted(i[1]))))
            m = with_blocks(m, additions)


def undirected_grid(k: int) -> ChainGraph:
    """The k x k grid of nodes Vi_j with undirected edges between neighbors."""
    name = "V{}_{}".format
    rows = [(name(i, j), name(i, j + 1)) for i in range(k) for j in range(k - 1)]
    cols = [(name(i, j), name(i + 1, j)) for i in range(k - 1) for j in range(k)]
    return cg([name(i, j) for i in range(k) for j in range(k)], [], rows + cols)


def random_corpus(
    seed: int, count: int, sizes, max_edges: int | None = None, **kwargs
) -> list[ChainGraph]:
    """`count` draws of `random_chain_graph` from one seeded stream, sizes in
    turn; a draw with more than `max_edges` edges is redrawn."""
    rnd = random.Random(seed)
    sizes = list(sizes)
    corpus = []
    for i in range(count):
        while True:
            g = random_chain_graph(rnd, node_names(sizes[i % len(sizes)]), **kwargs)
            if max_edges is None or len(g.skeleton) <= max_edges:
                break
        corpus.append(g)
    return corpus


@st.composite
def chain_graphs(draw, max_nodes: int = 5) -> ChainGraph:
    """Valid chain graphs, built so no semidirected cycle can arise."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = list(node_names(n))
    pairs = list(combinations(nodes, 2))
    undirected = frozenset(
        p for p in pairs if draw(st.booleans(), label=f"und {p}")
    )
    comps = undirected_components(nodes, undirected)
    order = draw(st.permutations(range(len(comps))))
    rank = {node: order[i] for i, comp in enumerate(comps) for node in comp}
    directed = []
    for a, b in pairs:
        if rank[a] == rank[b]:
            continue
        if draw(st.booleans(), label=f"dir {a}{b}"):
            directed.append((a, b) if rank[a] < rank[b] else (b, a))
    return validate_chain_graph(nodes, directed, undirected)


@st.composite
def marked_graph_parts(draw, max_nodes: int = 7):
    """(nodes, skeleton, blocked) name sets: a skeleton with arbitrary end
    blocks, reachable by the rules or not."""
    nodes = node_names(draw(st.integers(min_value=1, max_value=max_nodes)))
    skeleton = frozenset(
        p for p in combinations(nodes, 2) if draw(st.booleans(), label=f"edge {p}")
    )
    blocked = frozenset(
        end
        for a, b in sorted(skeleton)
        for end in ((a, b), (b, a))
        if draw(st.booleans(), label=f"block {end}")
    )
    return frozenset(nodes), skeleton, blocked


def marked_graph(nodes, skeleton, blocked) -> MarkedGraph:
    """The marked graph with these name sets, built by name."""
    g = ChainGraph(frozenset(nodes), frozenset(), frozenset(skeleton))
    return with_blocks(unmarked_skeleton(g), blocked)


def marked_graphs(max_nodes: int = 7):
    """Marked graphs drawn as `marked_graph_parts`."""
    return marked_graph_parts(max_nodes).map(lambda parts: marked_graph(*parts))


def parse_graph_line_by_line(text: str) -> ChainGraph:
    """The reference reading of a graph document: each line is checked as it
    is read, so the first faulty line raises; the constructor then rejects a
    semidirected cycle."""
    nodes: set[str] = set()
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    seen_pairs: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "edge":
            if len(tokens) != 4 or tokens[2] not in ("->", "--"):
                raise ParseError(
                    lineno, f"expected 'edge A -> B' or 'edge A -- B', got {raw.strip()!r}"
                )
            _, a, op, b = tokens
            if (a not in nodes and not is_valid_name(a)) or (
                b not in nodes and not is_valid_name(b)
            ):
                raise ParseError(lineno, f"invalid node name in {raw.strip()!r}")
            if a == b:
                raise ParseError(lineno, f"self-loop at {a!r}")
            key = (a, b) if a <= b else (b, a)
            if key in seen_pairs:
                raise DuplicateEdgeError(
                    f"line {lineno}: more than one edge between {key[0]!r} and {key[1]!r}"
                )
            seen_pairs.add(key)
            nodes.update((a, b))
            if op == "->":
                directed.append((a, b))
            else:
                undirected.append(key)
        elif kind == "node":
            if len(tokens) != 2 or (tokens[1] not in nodes and not is_valid_name(tokens[1])):
                raise ParseError(lineno, f"expected 'node NAME', got {raw.strip()!r}")
            nodes.add(tokens[1])
        else:
            raise ParseError(lineno, f"unknown statement {kind!r}")
    return ChainGraph(frozenset(nodes), frozenset(directed), frozenset(undirected))


#: every character `str.split` splits at, then those `str.splitlines` breaks
#: a line at (with "\r\n"), and the rest, which separate the tokens of a line
_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]
_BREAKS = [c for c in _SPACES if len(f"a{c}b".splitlines()) == 2] + ["\r\n"]
_GAPS = [c for c in _SPACES if c not in _BREAKS]


@st.composite
def graph_documents(draw, max_lines: int = 8) -> str:
    """Graph documents, valid or not: edge and node statements over four
    names, often with a cycle through three or four of them, so doubled
    pairs and semidirected cycles are common; up to two faulty lines (a
    self-loop, an invalid name, a bad operator or shape, an unknown keyword)
    put anywhere; every line break and every space, blank lines, and `#`
    comments glued to the line, which may hold a line break themselves."""
    name = st.sampled_from("ABCD")
    edge = st.tuples(st.permutations("ABCD"), st.sampled_from(["->", "--"])).map(
        lambda drawn: ("edge", drawn[0][0], drawn[1], drawn[0][1])
    )
    statement = st.one_of(edge, edge, edge, st.tuples(st.just("node"), name), st.just(()))
    bad_name = st.sampled_from(["A-B", "\xe9", "\u0663"])
    faulty = st.one_of(
        name.map(lambda a: ("edge", a, "->", a)),
        st.tuples(st.just("edge"), name, st.sampled_from(["->", "--"]), bad_name),
        st.tuples(st.just("node"), bad_name),
        st.tuples(st.just("edge"), name, st.just("<-"), name),
        st.tuples(st.sampled_from(["edge", "node"]), name, name),
        st.tuples(st.just("bogus"), name),
    )
    statements = draw(st.lists(statement, max_size=max_lines))
    if draw(st.booleans()):  # a cycle through three or four names
        ring = draw(st.permutations("ABCD"))[: draw(st.integers(3, 4))]
        ops = draw(st.lists(st.sampled_from(["->", "--"]), min_size=4, max_size=4))
        statements += [("edge", u, op, v) for u, v, op in zip(ring, ring[1:] + ring[:1], ops)]
        statements = draw(st.permutations(statements))
    for tokens in draw(st.lists(faulty, max_size=2)):
        statements.insert(draw(st.integers(0, len(statements))), tokens)
    gap = st.text(st.sampled_from(_GAPS), min_size=1, max_size=2)
    pad = st.text(st.sampled_from(_GAPS), max_size=2)
    comment = st.lists(
        st.sampled_from(["#", "x", " ", "node E", "edge E -> A"] + _BREAKS), max_size=4
    ).map("".join)
    lines = []
    for tokens in statements:
        line = draw(pad) + "".join(t + draw(gap) for t in tokens[:-1]) + "".join(tokens[-1:])
        if draw(st.integers(0, 3)) == 0:
            line += "#" + draw(comment)
        lines.append(line + draw(pad))
    ends = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    ends[-1:] = [draw(st.sampled_from(["", *_BREAKS]))]  # the last line may end unbroken
    return "".join(line + end for line, end in zip(lines, ends))
