import random

import pytest
from hypothesis import given, settings

from ampcg import random_chain_graph, route_is_open, separated
from ampcg.errors import InvalidQueryError
from ampcg.generate import node_names

from .support import all_singleton_queries, cg, chain_graphs, open_route_oracle


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
