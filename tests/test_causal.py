import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from ampcg import (
    adjusting_set,
    bound_effect,
    enumerate_adjusting_sets,
    essential_graph,
    locally_valid,
    node_names,
    population_covariance,
    random_chain_graph,
    random_model,
    st_nst,
    strong_labeling,
)
from ampcg.causal import MODES
from ampcg.errors import (
    SUPERSET_CAP,
    NotNonStrongNeighborError,
    TooLargeError,
    UnknownNodeError,
    check_cap,
)
from ampcg.oracle import maximally_oriented_members

from .support import cg, chain_graphs, set_locally_valid, undirected_grid


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
        built = []

        def counting(count, cap, message):
            built.append(count)
            return check_cap(count, cap, message)

        monkeypatch.setattr("ampcg.causal.check_cap", counting)
        sets = enumerate_adjusting_sets(lab, "X", "maxoriented")
        assert {a.nodes for a in sets} == {frozenset()} | {frozenset([n]) for n in leaves}
        assert all(a.source == a.nodes for a in sets)
        # the empty set and each leaf; no pair of leaves is tried, let alone 2^30 subsets
        assert len(built) == 1 + 30

    def test_maxoriented_partitions_the_neighbors_once(self, monkeypatch):
        # an undirected K_6 grows all 2^5 subsets of V0's neighbors; the
        # partition at V0 is read once for all of them
        names = node_names(6)
        lab = essential_graph(cg(names, [], list(combinations(names, 2))))
        calls = 0
        partition = st_nst

        def counting(labeling, x):
            nonlocal calls
            calls += 1
            return partition(labeling, x)

        monkeypatch.setattr("ampcg.causal.st_nst", counting)
        sets = enumerate_adjusting_sets(lab, "V0", "maxoriented")
        assert len(sets) == 2**5 and calls == 1

    def test_maxoriented_sets_are_class_sets(self):
        # the entries compare by their nodes alone, so the two families nest
        # as sets of AdjustingSet
        rnd = random.Random(109)
        nested = 0
        for _ in range(150):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)),
                                   p_undirected=0.3, p_directed=0.3)
            lab = essential_graph(g)
            for x in g.sorted_nodes:
                maxoriented = enumerate_adjusting_sets(lab, x, "maxoriented")
                assert maxoriented <= enumerate_adjusting_sets(lab, x, "class"), (g, x)
                nested += any(a.source for a in maxoriented)
        assert nested >= 300

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


@settings(max_examples=100, deadline=None)
@given(chain_graphs(max_nodes=6))
def test_locally_valid_matches_the_set_oracle(g):
    lab = strong_labeling(g)
    for x in lab.graph.sorted_nodes:
        nst = sorted(st_nst(lab, x).nst)
        for size in range(len(nst) + 1):
            for s in combinations(nst, size):
                assert locally_valid(lab, x, s) == set_locally_valid(lab, x, s), (x, s)


def test_locally_valid_matches_the_set_oracle_at_scale():
    # every subset of every node with at most 10 non-strong neighbors, on the
    # 200- and 500-node draws
    pairs = 0
    for n, p_u, p_d in ((200, 0.006, 0.01), (500, 0.0024, 0.004)):
        lab = essential_graph(random_chain_graph(random.Random(n), node_names(n), p_u, p_d))
        for x in lab.graph.sorted_nodes:
            nst = sorted(st_nst(lab, x).nst)
            if len(nst) > 10:
                continue
            for size in range(len(nst) + 1):
                for s in combinations(nst, size):
                    assert locally_valid(lab, x, s) == set_locally_valid(lab, x, s), (n, x, s)
                    pairs += 1
    assert pairs == 933


class TestEssentialGraphArgument:
    """The causal layer reads only `.graph` and `.strong_undirected`, so the
    essential graph stands in for the full labeling."""

    def test_strong_undirected_edges_match_the_labeling(self):
        rnd = random.Random(103)
        graphs = [undirected_grid(10)]
        for _ in range(240):
            n = rnd.randint(2, 24)
            p = rnd.choice((0.1, 0.2, 0.35))
            graphs.append(random_chain_graph(rnd, node_names(n), p, p))
        assert sum(bool(strong_labeling(g).strong_undirected) for g in graphs) >= 40
        for g in graphs:
            assert essential_graph(g).strong_undirected == strong_labeling(g).strong_undirected, g

    def test_adjusting_sets_and_bounds_match_the_labeling(self):
        rnd = random.Random(107)
        for trial in range(40):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)),
                                   p_undirected=0.35, p_directed=0.25)
            result, lab = essential_graph(g), strong_labeling(g)
            cov = population_covariance(random_model(g, seed=700 + trial))
            for x in g.sorted_nodes:
                for mode in MODES:
                    assert enumerate_adjusting_sets(result, x, mode) == \
                        enumerate_adjusting_sets(lab, x, mode), (g, x, mode)
                    if len(g.nodes) > 1:
                        y = rnd.choice(sorted(g.nodes - {x}))
                        assert bound_effect(cov, result, x, y, mode) == \
                            bound_effect(cov, lab, x, y, mode), (g, x, y, mode)
