import random

import pytest
from hypothesis import given, settings

from ampcg import random_chain_graph, route_is_open, separated
from ampcg.equivalence import _is_triplex
from ampcg.errors import InvalidQueryError
from ampcg.generate import node_names

from .support import (
    _mark_at,
    adjacency,
    all_singleton_queries,
    cg,
    chain_graphs,
    open_route_oracle,
    random_corpus,
    set_separated,
)


class TestSeparated:
    def test_collider_blocks_without_conditioning(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        assert separated(g, "A", "C")
        assert not separated(g, "A", "C", "B")

    def test_chain_and_fork_open_until_the_middle_is_given(self):
        for g in (cg("ABC", [("A", "B"), ("B", "C")]), cg("ABC", [("B", "A"), ("B", "C")])):
            assert not separated(g, "A", "C")
            assert separated(g, "A", "C", "B")

    def test_flag_pattern(self):
        g = cg("ABC", [("A", "B")], [("B", "C")])
        assert separated(g, "A", "C")
        assert not separated(g, "A", "C", "B")

    def test_invalid_queries(self):
        g = cg("AB", [("A", "B")])
        with pytest.raises(InvalidQueryError):
            separated(g, "A", "A")
        with pytest.raises(InvalidQueryError):
            separated(g, "A", "B", "A")
        with pytest.raises(InvalidQueryError):
            separated(g, "A", "Z")
        with pytest.raises(InvalidQueryError):
            separated(g, "", "B")


class TestRouteOracle:
    def test_single_edge(self):
        g = cg("AB", [], [("A", "B")])
        assert open_route_oracle(g, "A", "B")

    def test_collider_then_flag(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        assert open_route_oracle(g, "A", "D", "B")
        assert not open_route_oracle(g, "A", "D")

    def test_route_is_open_literal(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        assert route_is_open(g, ["A", "B", "C", "D"], {"B"})
        assert not route_is_open(g, ["A", "B", "C", "D"], set())
        assert not route_is_open(g, ["A", "B", "C", "D"], {"B", "C"})
        with pytest.raises(InvalidQueryError):
            route_is_open(g, ["A", "D"], set())


def test_oracle_equivalence_on_random_graphs():
    rnd = random.Random(42)
    for trial in range(500):
        g = random_chain_graph(
            rnd, node_names(rnd.randint(2, 5)), p_undirected=0.3, p_directed=0.3
        )
        for x, y, zs in all_singleton_queries(g):
            assert separated(g, {x}, {y}, zs) == (
                not open_route_oracle(g, {x}, {y}, zs)
            ), (g, x, y, zs)


@settings(max_examples=60, deadline=None)
@given(chain_graphs(max_nodes=5))
def test_symmetry_and_adjacency(g):
    for x, y, zs in all_singleton_queries(g):
        forward = separated(g, {x}, {y}, zs)
        assert forward == separated(g, {y}, {x}, zs)
        if g.is_adjacent(x, y):
            assert not forward


def test_multi_source_queries_decompose_into_pairs():
    rnd = random.Random(53)
    from ampcg import node_names

    for _ in range(60):
        g = random_chain_graph(rnd, node_names(rnd.randint(3, 6)))
        nodes = list(g.sorted_nodes)
        rnd.shuffle(nodes)
        xs, ys = frozenset(nodes[:2]), frozenset(nodes[2:3])
        rest = [n for n in nodes if n not in xs | ys]
        zs = frozenset(rest[: rnd.randint(0, len(rest))])
        joint = separated(g, xs, ys, zs)
        pairwise = all(separated(g, {x}, {y}, zs) for x in xs for y in ys)
        assert joint == pairwise, (g, xs, ys, zs)


class TestUnknownRouteNodes:
    def test_route_node_is_named(self):
        g = cg("ABCD", [("A", "C"), ("B", "C")], [("C", "D")])
        with pytest.raises(InvalidQueryError, match=r"route contains unknown nodes \['Q'\]"):
            route_is_open(g, ["A", "Q"], [])

    def test_z_node_is_named(self):
        g = cg("ABCD", [("A", "C"), ("B", "C")], [("C", "D")])
        with pytest.raises(InvalidQueryError, match=r"Z contains unknown nodes \['Q'\]"):
            route_is_open(g, ["A", "C", "D"], ["Q"])
        with pytest.raises(InvalidQueryError, match=r"Z contains unknown nodes \['Q'\]"):
            separated(g, {"A"}, {"B"}, {"Q"})


def _agree_with_the_name_oracle(g, queries):
    answers = set()
    for x, y, zs in queries:
        got = separated(g, {x}, {y}, zs)
        assert got == set_separated(g, {x}, {y}, zs), (g, x, y, sorted(zs))
        answers.add(got)
    return answers


def test_masks_match_the_name_oracle_on_every_4_node_graph(corpus4):
    for g in corpus4:
        _agree_with_the_name_oracle(g, all_singleton_queries(g))


def test_masks_match_the_name_oracle_on_random_graphs():
    for g in random_corpus(341, 80, (5, 6, 7, 8), p_undirected=0.25, p_directed=0.3):
        _agree_with_the_name_oracle(g, all_singleton_queries(g))


def test_masks_match_the_name_oracle_at_scale():
    # the ROADMAP draws at 200 nodes and both at 1000 nodes
    for n, p_u, p_d in ((200, 0.006, 0.01), (1000, 0.0012, 0.002), (1000, 0.003, 0.005)):
        g = random_chain_graph(random.Random(n), node_names(n), p_u, p_d)
        rnd = random.Random(n + 1)
        queries = []
        for _ in range(300):
            x, y, *zs = rnd.sample(g.sorted_nodes, 2 + rnd.randint(0, 8))
            queries.append((x, y, frozenset(zs)))
        assert _agree_with_the_name_oracle(g, queries) == {True, False}, n


def test_route_check_matches_the_literal_definition_on_names():
    rnd = random.Random(343)
    for g in random_corpus(344, 150, (3, 4, 5, 6), p_undirected=0.3, p_directed=0.3):
        adj = adjacency(g)
        starts = [n for n in g.sorted_nodes if adj[n]]
        for _ in range(10 if starts else 0):
            route = [rnd.choice(starts)]
            for _ in range(rnd.randint(1, 7)):
                route.append(rnd.choice(sorted(adj[route[-1]])))
            zs = frozenset(rnd.sample(g.sorted_nodes, rnd.randint(0, len(g.nodes))))
            want = all(
                _is_triplex(_mark_at(g, v, u), _mark_at(g, v, w)) == (v in zs)
                for u, v, w in zip(route, route[1:], route[2:])
            )
            assert route_is_open(g, route, zs) == want, (g, route, sorted(zs))
