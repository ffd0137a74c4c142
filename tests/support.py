"""Shared corpus builders, oracles and hypothesis strategies for the tests."""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from itertools import combinations, permutations

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
from ampcg.equivalence import _is_triplex
from ampcg.errors import NotChordalError
from ampcg.essential import RULE_NAMES, MarkedGraph
from ampcg.graphs import _eliminate, _undirected_components
from ampcg.separation import _check_query, _mark_at, route_is_open
from ampcg.transform import _split_candidates, _split_result


def cg(nodes, directed=(), undirected=()) -> ChainGraph:
    """Shorthand constructor for small literal graphs."""
    return validate_chain_graph(nodes, directed, undirected)


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


def set_flanks(g: ChainGraph, heads, others) -> set[tuple[str, str]]:
    """Non-adjacent pairs {a, c} with a in `heads` and c in `heads | others`,
    by set arithmetic on names: an oracle for the mask search
    `equivalence._flanks`."""
    near = heads | others
    return {pair(a, c) for a in heads for c in near - g.adjacency[a] if c != a}


def set_triplexes(g: ChainGraph):
    """Every (middle, sorted flank pair) key, by set arithmetic: an oracle for
    `triplexes`."""
    return frozenset(
        (b, fl) for b in g.nodes for fl in set_flanks(g, g.parent_map[b], g.neighbor_map[b])
    )


def set_locally_valid(labeling, x, s) -> bool:
    """`locally_valid` by set arithmetic: orienting s -> x adds no flank pair
    at x that the essential graph lacks."""
    eg = labeling.graph
    heads = eg.parent_map[x] | frozenset(s)
    return set_flanks(eg, heads, st_nst(labeling, x).st) <= set_flanks(
        eg, eg.parent_map[x], eg.neighbor_map[x]
    )


def set_component_order(nodes, directed, undirected):
    """Chain components in topological order, or None on a semidirected
    cycle, by Kahn's algorithm over frozensets with a (least node, index)
    heap: an oracle for `graphs._component_order`."""
    comps = _undirected_components(nodes, undirected)
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


def set_orient_by_mcs(g: ChainGraph, rng: random.Random | None = None) -> ChainGraph:
    """`orient_by_mcs` by simplicial elimination over name sets, then a
    `max` and a `sorted` over the unvisited nodes per visit: an oracle for
    the bucket-mask search `graphs._mcs_ranks`."""
    if _eliminate(g) is None:
        raise NotChordalError("graph is not chordal")
    weight = {n: 0 for n in g.nodes}
    unmarked = set(g.nodes)
    position: dict[str, int] = {}
    while unmarked:
        best = max(weight[n] for n in unmarked)
        candidates = sorted(n for n in unmarked if weight[n] == best)
        chosen = candidates[0] if rng is None else rng.choice(candidates)
        position[chosen] = len(position)
        unmarked.discard(chosen)
        for w in g.adjacency[chosen] & unmarked:
            weight[w] += 1
    directed = frozenset(
        (a, b) if position[a] < position[b] else (b, a) for a, b in g.undirected
    )
    return ChainGraph(nodes=g.nodes, directed=directed, undirected=frozenset())


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

    def dfs(route: list[str], states: frozenset, entry: str | None) -> list[str] | None:
        if len(route) >= bound:
            return None
        last = route[-1]
        for w in sorted(g.adjacency[last]):
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


def is_adjacent(m: MarkedGraph, u, v) -> bool:
    return pair(u, v) in m.skeleton


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


def chordless_cycle_orders(m: MarkedGraph) -> list[tuple[str, ...]]:
    """Every node order (v0, ..., vk), k >= 2, that walks a chordless cycle
    v0 ~ v1 ~ ... ~ vk ~ v0, once per rotation and direction.

    Brute force over permutations: a node set spans a chordless cycle exactly
    when its induced skeleton has as many edges as nodes and some ordering
    of it is a closed walk.  An oracle for the chordless-path search.
    """
    out = []
    for k in range(3, len(m.nodes) + 1):
        for subset in combinations(m.sorted_nodes, k):
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
    adj, blocked = m.adjacency, m.blocked
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
    for a, b in sorted(m.blocked):
        for c in sorted(m.adjacency[b] - {a}):
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
    for b in m.sorted_nodes:
        for a in sorted(m.adjacency[b]):
            if (a, b) in m.blocked:
                continue
            shared = sorted((m.adjacency[a] & m.adjacency[b]) - {a, b})
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
            m = m.with_blocks(end for _, additions in instances for end in additions)
        else:
            _, additions = rng.choice(sorted(instances, key=lambda i: (i[0], sorted(i[1]))))
            m = m.with_blocks(additions)


def undirected_grid(k: int) -> ChainGraph:
    """The k x k grid of nodes Vi_j with undirected edges between neighbors."""
    name = "V{}_{}".format
    rows = [(name(i, j), name(i, j + 1)) for i in range(k) for j in range(k - 1)]
    cols = [(name(i, j), name(i + 1, j)) for i in range(k - 1) for j in range(k)]
    return cg([name(i, j) for i in range(k) for j in range(k)], [], rows + cols)


def random_corpus(seed: int, count: int, sizes, **kwargs) -> list[ChainGraph]:
    rnd = random.Random(seed)
    sizes = list(sizes)
    return [
        random_chain_graph(rnd, node_names(sizes[i % len(sizes)]), **kwargs)
        for i in range(count)
    ]


@st.composite
def chain_graphs(draw, max_nodes: int = 5) -> ChainGraph:
    """Valid chain graphs, built so no semidirected cycle can arise."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = list(node_names(n))
    pairs = list(combinations(nodes, 2))
    undirected = frozenset(
        p for p in pairs if draw(st.booleans(), label=f"und {p}")
    )
    comps = _undirected_components(nodes, undirected)
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
def marked_graphs(draw, max_nodes: int = 7) -> MarkedGraph:
    """Skeletons with arbitrary end blocks, reachable by the rules or not."""
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
    return MarkedGraph(nodes=frozenset(nodes), skeleton=skeleton, blocked=blocked)

