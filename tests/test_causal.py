import random

import pytest

from ampcg import (
    adjusting_set,
    enumerate_adjusting_sets,
    locally_valid,
    node_names,
    random_chain_graph,
    st_nst,
    strong_labeling,
)
from ampcg.causal import SUPERSET_CAP
from ampcg.errors import NotNonStrongNeighborError, TooLargeError, UnknownNodeError
from ampcg.transform import maximally_oriented_members

from .support import cg


class TestAdjustingSet:
    def test_chain_middle(self):
        g = cg("ABC", [("A", "B"), ("B", "C")])
        assert adjusting_set(g, "B") == {"A"}

    def test_neighbor_with_no_parents(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        assert adjusting_set(g, "C") == {"D"}

    def test_undirected_component(self):
        g = cg("AB", [], [("A", "B")])
        assert adjusting_set(g, "A") == {"B"}

    def test_neighbors_parents_included(self):
        g = cg("ABCX", [("X", "A")], [("A", "B"), ("B", "C")])
        assert adjusting_set(g, "B") == {"A", "C", "X"}

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            adjusting_set(cg("A"), "Z")


class TestStNst:
    def test_single_undirected_edge_is_non_strong(self):
        lab = strong_labeling(cg("AB", [], [("A", "B")]))
        part = st_nst(lab, "A")
        assert part.st == frozenset() and part.nst == {"B"}

    def test_four_cycle_neighbors_are_strong(self):
        g = cg("ABCD", [], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        part = st_nst(strong_labeling(g), "A")
        assert part.st == {"B", "D"} and part.nst == frozenset()

    def test_no_undirected_neighbors(self):
        lab = strong_labeling(cg("ABC", [("A", "B"), ("C", "B")]))
        part = st_nst(lab, "B")
        assert part.st == frozenset() and part.nst == frozenset()

    def test_one_side_always_empty_on_random_graphs(self):
        rnd = random.Random(83)
        for _ in range(120):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            lab = strong_labeling(g)
            for x in g.sorted_nodes:
                part = st_nst(lab, x)  # raises MixedStrongNeighborsError on violation
                assert not (part.st and part.nst)


class TestLocallyValid:
    def test_single_neighbor(self):
        lab = strong_labeling(cg("AB", [], [("A", "B")]))
        assert locally_valid(lab, "B", {"A"})

    def test_path_orientations(self):
        lab = strong_labeling(cg("AXB", [], [("A", "X"), ("B", "X")]))
        assert locally_valid(lab, "X", {"A"})
        assert locally_valid(lab, "X", set())
        assert not locally_valid(lab, "X", {"A", "B"})

    def test_rejects_nodes_outside_nst(self):
        lab = strong_labeling(cg("AB", [], [("A", "B")]))
        with pytest.raises(NotNonStrongNeighborError):
            locally_valid(lab, "B", {"Z"})


class TestEnumerateAdjustingSets:
    def test_maxoriented_single_edge(self):
        lab = strong_labeling(cg("AB", [], [("A", "B")]))
        got = {a.nodes for a in enumerate_adjusting_sets(lab, "A", "maxoriented")}
        assert got == {frozenset(), frozenset("B")}

    def test_class_mode_collider(self):
        lab = strong_labeling(cg("ABC", [("A", "B"), ("C", "B")]))
        got = {a.nodes for a in enumerate_adjusting_sets(lab, "B", "class")}
        assert got == {frozenset("AC")}

    def test_superset_mode_counts_subsets(self):
        lab = strong_labeling(cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")]))
        sets = enumerate_adjusting_sets(lab, "C", "superset")
        assert {frozenset(), frozenset("ABD")} <= {a.nodes for a in sets}
        assert len(sets) == 8

    def test_superset_cap(self):
        leaves = [f"L{i}" for i in range(SUPERSET_CAP + 1)]
        lab = strong_labeling(cg(["X", *leaves], (), [("X", leaf) for leaf in leaves]))
        with pytest.raises(TooLargeError):
            enumerate_adjusting_sets(lab, "X", "superset")

    def test_class_sets_fit_inside_the_superset_base(self):
        from ampcg.graphs import family

        rnd = random.Random(89)
        for _ in range(80):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            lab = strong_labeling(g)
            eg = lab.graph
            for x in eg.sorted_nodes:
                ad = family(eg, {x}, "ad")
                base = (ad | family(eg, ad, "ad")) - {x}
                for aset in enumerate_adjusting_sets(lab, x, "class"):
                    assert aset.nodes <= base

    def test_maxoriented_grows_only_valid_sets(self, monkeypatch):
        # undirected star: any two leaves oriented into X form a new triplex,
        # so the valid orientation sets are the empty set and each single leaf
        leaves = [f"L{i:02d}" for i in range(30)]
        lab = strong_labeling(cg(["X", *leaves], [], [("X", leaf) for leaf in leaves]))
        calls = []

        def counting(labeling, x, s):
            calls.append(s)
            return locally_valid(labeling, x, s)

        monkeypatch.setattr("ampcg.causal.locally_valid", counting)
        sets = enumerate_adjusting_sets(lab, "X", "maxoriented")
        assert {a.nodes for a in sets} == {frozenset()} | {frozenset([n]) for n in leaves}
        assert all(a.source == a.nodes for a in sets)
        # the empty set, each leaf, and each rejected pair: not 2^30 subsets
        assert len(calls) == 1 + 30 + 30 * 29 // 2

    def test_maxoriented_matches_harvested_members(self):
        rnd = random.Random(97)
        for _ in range(60):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            lab = strong_labeling(g)
            eg = lab.graph
            maxes = maximally_oriented_members(eg)
            for x in eg.sorted_nodes:
                got = {a.nodes for a in enumerate_adjusting_sets(lab, x, "maxoriented")}
                want = {adjusting_set(m, x) for m in maxes}
                assert got == want, (eg, x)
