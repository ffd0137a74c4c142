import random

import pytest
from hypothesis import given, settings

from ampcg import (
    EquivalenceClass,
    enumerate_class,
    equivalent,
    essential_from_class,
    strong_oracle,
    triplexes,
    validate_chain_graph,
)
from ampcg.errors import EmptyClassError, NodeSetMismatchError, TooLargeError

from .support import cg, chain_graphs, same_separations


class TestTriplexes:
    def test_collider(self):
        assert triplexes(cg("ABC", [("A", "B"), ("C", "B")])) == {("B", ("A", "C"))}

    def test_chain_has_none(self):
        assert not triplexes(cg("ABC", [("A", "B"), ("B", "C")]))

    def test_flag_only_at_the_arrow_middle(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        assert triplexes(g) == {("B", ("A", "C"))}


class TestEquivalent:
    def test_single_edge_orientations(self):
        assert equivalent(cg("AB", [], [("A", "B")]), cg("AB", [("A", "B")]))

    def test_collider_and_flag(self):
        assert equivalent(
            cg("ABC", [("A", "B"), ("C", "B")]),
            cg("ABC", [("C", "B")], [("A", "B")]),
        )

    def test_collider_vs_chain(self):
        assert not equivalent(
            cg("ABC", [("A", "B"), ("C", "B")]),
            cg("ABC", [("A", "B"), ("B", "C")]),
        )

    def test_node_set_mismatch(self):
        with pytest.raises(NodeSetMismatchError):
            equivalent(cg("AB"), cg("AC"))


class TestEnumerateClass:
    def test_single_edge_class(self):
        cls = enumerate_class(cg("AB", [], [("A", "B")]))
        assert len(cls) == 3

    def test_collider_class(self):
        cls = enumerate_class(cg("ABC", [("A", "B"), ("C", "B")]))
        assert len(cls) == 3

    def test_collider_with_tail_class(self):
        cls = enumerate_class(cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")]))
        assert len(cls) == 8

    def test_edge_cap(self):
        g = validate_chain_graph(
            [f"V{i}" for i in range(18)],
            [],
            [(f"V{i}", f"V{i+1}") for i in range(17)],
        )
        with pytest.raises(TooLargeError):
            enumerate_class(g)

    @settings(max_examples=50, deadline=None)
    @given(chain_graphs(max_nodes=4))
    def test_class_properties(self, g):
        cls = enumerate_class(g)
        assert g in cls
        for member in cls:
            assert member.skeleton == g.skeleton
            assert equivalent(member, g)

    def test_matches_naive_reference_enumeration(self):
        # unpruned reference: try all 3^|E| assignments, validate, filter
        from itertools import product

        from ampcg.errors import SemidirectedCycleError
        from ampcg.generate import node_names, random_chain_graph

        def naive_class(g):
            edges = sorted(g.skeleton)
            members = set()
            for states in product(range(3), repeat=len(edges)):
                directed, undirected = [], []
                for (a, b), s in zip(edges, states):
                    if s == 0:
                        undirected.append((a, b))
                    else:
                        directed.append((a, b) if s == 1 else (b, a))
                try:
                    cand = validate_chain_graph(g.nodes, directed, undirected)
                except SemidirectedCycleError:
                    continue
                if equivalent(cand, g):
                    members.add(cand)
            return members

        rnd = random.Random(19)
        for _ in range(40):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            assert enumerate_class(g).members == naive_class(g), g


class TestEssentialFromClass:
    def test_single_edge(self):
        g = cg("AB", [], [("A", "B")])
        assert essential_from_class(enumerate_class(g)) == g

    def test_collider(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        assert essential_from_class(enumerate_class(g)) == g

    def test_collider_with_tail(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        assert essential_from_class(enumerate_class(g)) == g

    def test_empty_class(self):
        with pytest.raises(EmptyClassError):
            essential_from_class(EquivalenceClass(members=frozenset()))


class TestStrongOracle:
    def test_single_edge_none_strong(self):
        summary = strong_oracle(enumerate_class(cg("AB", [], [("A", "B")])))
        assert not summary.directed and not summary.undirected

    def test_collider_with_tail_none_strong(self):
        cls = enumerate_class(cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")]))
        summary = strong_oracle(cls)
        assert not summary.directed and not summary.undirected

    def test_collider_with_child(self):
        cls = enumerate_class(cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")]))
        summary = strong_oracle(cls)
        assert summary.directed == {("C", "D")}
        assert not summary.undirected


def test_equivalence_matches_separation_agreement():
    # equal-skeleton pairs on <= 4 nodes: triplex criterion iff all queries agree
    rnd = random.Random(7)
    from ampcg import all_chain_graphs

    pool = all_chain_graphs("ABCD")
    by_skel = {}
    for g in pool:
        by_skel.setdefault(g.skeleton, []).append(g)
    skeletons = [s for s, members in by_skel.items() if len(members) > 1]
    for _ in range(60):
        g, h = rnd.sample(by_skel[rnd.choice(skeletons)], 2)
        assert equivalent(g, h) == same_separations(g, h)
