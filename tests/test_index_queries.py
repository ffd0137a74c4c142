"""The structural queries that read `ChainGraph.index` masks, against
name-set versions built from the edge sets alone."""

import random

from ampcg import (
    adjusting_set,
    family,
    feasible_merges,
    maximally_oriented,
    node_names,
    random_chain_graph,
    st_nst,
    strong_labeling,
)
from ampcg.graphs import pair
from ampcg.transform import _merge_candidates, _semidirected_descendants

from .support import (
    adjacency,
    children,
    is_complete,
    is_simplicial,
    neighbors,
    parents,
    random_corpus,
)


def set_family(g, xs, relation):
    """`family` over the name helpers; "de" by depth-first search."""
    if relation == "de":
        ch = children(g)
        out, frontier = set(), [c for x in xs for c in ch[x]]
        while frontier:
            cur = frontier.pop()
            if cur not in out:
                out.add(cur)
                frontier.extend(ch[cur])
        return frozenset(out)
    views = {"pa": parents, "ch": children, "ne": neighbors, "ad": adjacency}
    view = views[relation](g)
    return frozenset(n for x in xs for n in view[x])


def set_semidirected_descendants(g, xs):
    """(node, arrow seen) states reached by -> and -- steps."""
    ch, ne = children(g), neighbors(g)
    frontier = [(x, False) for x in xs]
    seen = set(frontier)
    while frontier:
        node, arrow = frontier.pop()
        steps = [(w, True) for w in ch[node]] + [(w, arrow) for w in ne[node]]
        for state in steps:
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return frozenset(n for n, arrow in seen if arrow)


def set_feasible_merges(g):
    """`feasible_merges` by the four conditions over name sets."""
    pa, ch, ne = parents(g), children(g), neighbors(g)
    found = []
    for upper, lower in _merge_candidates(g):
        pa_lower = frozenset(p for y in lower for p in pa[y])
        boundary = pa_lower & upper
        pa_boundary = frozenset(p for b in boundary for p in pa[b])
        if (
            boundary
            and all(lower <= ch[b] for b in boundary)
            and all(b in ne[a] for a in boundary for b in boundary if a != b)
            and all(pa_boundary <= pa[y] for y in lower)
            and not set_semidirected_descendants(g, upper) & pa_lower
        ):
            found.append((upper, lower))
    return found


def _subsets(rnd, nodes):
    """A few random subsets of `nodes`, the empty set among them."""
    return [frozenset(rnd.sample(nodes, rnd.randint(0, len(nodes)))) for _ in range(3)] + [
        frozenset()
    ]


def test_family_and_completeness_match_the_name_sets():
    rnd = random.Random(5)
    for g in random_corpus(34, 120, (5, 6, 7, 8), p_undirected=0.25, p_directed=0.3):
        nodes = g.sorted_nodes
        ne = neighbors(g)
        for xs in _subsets(rnd, nodes):
            for relation in ("pa", "ch", "ne", "ad", "de"):
                assert family(g, xs, relation) == set_family(g, xs, relation), (g, xs, relation)
            assert is_complete(g, xs) == all(b in ne[a] for a in xs for b in xs if a != b)
            assert _semidirected_descendants(g.index, g.index.mask_of(xs)) == g.index.mask_of(
                set_semidirected_descendants(g, xs)
            ), (g, xs)
        for v in nodes:
            assert is_simplicial(g, v) == all(b in ne[a] for a in ne[v] for b in ne[v] if a != b)


def test_merges_and_adjusting_sets_match_the_name_sets():
    for g in random_corpus(35, 150, (5, 6, 7, 8), p_undirected=0.25, p_directed=0.3):
        assert feasible_merges(g) == set_feasible_merges(g), g
        pa, ne = parents(g), neighbors(g)
        labeling = strong_labeling(g)
        eg_ne = neighbors(labeling.graph)
        for x in g.sorted_nodes:
            near = ne[x] | {x}
            want = (ne[x] | frozenset(p for n in near for p in pa[n])) - {x}
            assert adjusting_set(g, x) == want, (g, x)
            strong = frozenset(a for a in eg_ne[x] if pair(a, x) in labeling.strong_undirected)
            part = st_nst(labeling, x)
            assert (part.st, part.nst) == (strong, eg_ne[x] - strong), (g, x)


def test_feasible_merges_on_a_sparse_1000_node_member():
    g = random_chain_graph(random.Random(1000), node_names(1000), 0.0012, 0.002)
    member = maximally_oriented(g)
    merges = feasible_merges(member)
    assert merges == set_feasible_merges(member)
    assert merges
