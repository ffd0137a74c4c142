import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcg import (
    ChainGraph,
    chain_components,
    family,
    is_chordal,
    is_complete,
    is_simplicial,
    orient_by_mcs,
    parse_graph,
    perfect_elimination_ending_with,
    random_chain_graph,
    random_chordal_graph,
    triplexes,
    validate_chain_graph,
)
from ampcg.equivalence import _FWD, _REV, _UND, _semidirected_free
from ampcg.errors import (
    DuplicateEdgeError,
    NotChordalError,
    SelfLoopError,
    SemidirectedCycleError,
    TailNotCompleteError,
    UnknownNodeError,
)
from ampcg.generate import node_names
from ampcg.graphs import _component_order, _eliminate, _graph_index, pair

from .support import cg, chain_graphs, set_component_order, set_orient_by_mcs


class TestValidation:
    def test_semidirected_cycle_rejected(self):
        with pytest.raises(SemidirectedCycleError) as exc:
            cg("ABC", [("A", "B"), ("C", "A")], [("B", "C")])
        assert exc.value.cycle == ["A", "B", "C", "A"]
        assert str(exc.value) == "semidirected cycle: A -> B -> C -> A"

    def test_constructor_rejects_a_semidirected_cycle(self):
        directed = frozenset({("A", "B"), ("B", "C"), ("C", "A")})
        with pytest.raises(SemidirectedCycleError) as built:
            ChainGraph(frozenset("ABC"), directed, frozenset())
        with pytest.raises(SemidirectedCycleError) as validated:
            validate_chain_graph("ABC", directed)
        assert str(built.value) == str(validated.value) == "semidirected cycle: A -> B -> C -> A"

    def test_constructor_rejects_an_unknown_endpoint(self):
        with pytest.raises(UnknownNodeError, match="unknown node 'B'"):
            ChainGraph(frozenset("A"), frozenset({("A", "B")}), frozenset())

    def test_constructor_rejects_a_self_loop(self):
        with pytest.raises(SelfLoopError, match="self-loop at 'A'"):
            ChainGraph(frozenset("AB"), frozenset(), frozenset({("A", "A")}))

    def test_constructor_rejects_an_undirected_pair_out_of_order(self):
        with pytest.raises(ValueError, match="pair"):
            ChainGraph(frozenset("AB"), frozenset(), frozenset({("B", "A")}))

    def test_collider_is_valid(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        assert g.directed == {("A", "B"), ("C", "B")}

    def test_mixed_cycle_with_two_arrows_rejected(self):
        # A->B--C--D plus D->A closes a semidirected cycle
        with pytest.raises(SemidirectedCycleError) as exc:
            cg("ABCD", [("A", "B"), ("D", "A")], [("B", "C"), ("C", "D")])
        assert exc.value.cycle == ["A", "B", "C", "D", "A"]

    def test_witness_closes_by_the_shortest_route(self):
        # B--C--D and B--D both lead on towards E -> A; the witness takes B--D
        with pytest.raises(SemidirectedCycleError) as exc:
            cg(
                "ABCDE",
                [("A", "B"), ("C", "D"), ("E", "A")],
                [("B", "C"), ("D", "E"), ("B", "D")],
            )
        assert exc.value.cycle == ["A", "B", "D", "E", "A"]

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            cg("A", [("A", "A")])

    def test_duplicate_pair(self):
        with pytest.raises(DuplicateEdgeError):
            cg("AB", [("A", "B")], [("A", "B")])
        with pytest.raises(DuplicateEdgeError):
            cg("AB", [("A", "B"), ("B", "A")])

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            cg("A", [("A", "B")])
        with pytest.raises(UnknownNodeError):
            validate_chain_graph(["bad name"])


class TestFamily:
    def test_parents(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        assert family(g, {"B"}, "pa") == {"A", "C"}

    def test_descendants_follow_directed_edges_only(self):
        g = cg("ABC", [("A", "B")], [("B", "C")])
        assert family(g, {"A"}, "de") == {"B"}

    def test_adjacents(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        assert family(g, {"C"}, "ad") == {"B", "D"}

    def test_unknown(self):
        g = cg("AB", [("A", "B")])
        with pytest.raises(UnknownNodeError):
            family(g, {"Z"}, "pa")


class TestComponents:
    def test_two_components(self):
        g = cg("ABC", [("A", "B")], [("B", "C")])
        assert chain_components(g).components == (frozenset("A"), frozenset("BC"))

    def test_isolated_node_order(self):
        g = cg("ABC", [], [("A", "B")])
        assert chain_components(g).components == (frozenset("AB"), frozenset("C"))

    def test_collider_with_tail(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        comps = chain_components(g).components
        assert set(comps) == {frozenset("A"), frozenset("CD"), frozenset("B")}
        assert comps.index(frozenset("B")) > comps.index(frozenset("A"))
        assert comps.index(frozenset("B")) > comps.index(frozenset("CD"))


class TestCompleteSimplicial:
    def test_triangle_complete(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C"), ("A", "C")])
        assert is_complete(g, "ABC")

    def test_path_middle_not_simplicial(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C")])
        assert not is_simplicial(g, "B")
        assert is_simplicial(g, "A")


class TestChordal:
    def test_four_cycle_not_chordal(self):
        g = cg("ABCD", [], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        assert not is_chordal(g)

    def test_triangle_chordal_with_tail(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C"), ("A", "C")])
        order = perfect_elimination_ending_with(g, ["C"])
        assert order[-1] == "C" and set(order) == set("ABC")

    def test_single_edge_tail(self):
        g = cg("AB", [], [("A", "B")])
        assert perfect_elimination_ending_with(g, ["B"]) == ("A", "B")

    def test_tail_not_complete(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C")])
        with pytest.raises(TailNotCompleteError):
            perfect_elimination_ending_with(g, ["A", "C"])

    def test_not_chordal_error(self):
        g = cg("ABCD", [], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        with pytest.raises(NotChordalError):
            perfect_elimination_ending_with(g, ["A"])
        with pytest.raises(NotChordalError):
            orient_by_mcs(g)

    def test_elimination_prefix_is_simplicial(self):
        rnd = random.Random(31)
        for trial in range(60):
            u = random_chordal_graph(rnd, node_names(rnd.randint(2, 7)))
            edges = sorted(u.undirected)
            tail = list(rnd.choice(edges)) if edges else [u.sorted_nodes[0]]
            order = perfect_elimination_ending_with(u, tail)
            assert list(order[-len(tail):]) == tail
            remaining = set(u.nodes)
            for v in order:
                nbrs = sorted(u.adjacency[v] & remaining)
                assert all(u.has_undirected(a, b) for a, b in combinations(nbrs, 2))
                remaining.discard(v)


class TestMcs:
    def test_single_edge(self):
        g = cg("AB", [], [("A", "B")])
        assert orient_by_mcs(g).directed == {("A", "B")}

    def test_random_chordal_orientations(self):
        rnd = random.Random(17)
        for trial in range(80):
            u = random_chordal_graph(rnd, node_names(rnd.randint(1, 7)))
            rng = random.Random(trial) if trial % 2 else None
            d = orient_by_mcs(u, rng=rng)
            assert not d.undirected
            assert d.skeleton == u.skeleton
            assert not triplexes(d)
            validate_chain_graph(d.nodes, d.directed)  # raises on a directed cycle

    def test_seeded_variant_reaches_both_directions(self):
        g = cg("AB", [], [("A", "B")])
        seen = {orient_by_mcs(g, rng=random.Random(s)).directed for s in range(20)}
        assert seen == {frozenset({("A", "B")}), frozenset({("B", "A")})}

    def test_masks_match_the_set_based_search(self):
        def outcome(orient, g, rng):
            try:
                return orient(g, rng=rng).directed
            except NotChordalError:
                return None

        rnd = random.Random(16)
        not_chordal = 0
        for trial in range(400):
            nodes = node_names(rnd.randint(1, 10))
            if trial % 2:
                u = random_chordal_graph(rnd, nodes)
            else:
                u = random_chain_graph(rnd, nodes, rnd.uniform(0.2, 0.7), 0.0)
            chordal = _eliminate(u) is not None
            not_chordal += not chordal
            assert is_chordal(u) == chordal, u
            assert outcome(orient_by_mcs, u, None) == outcome(set_orient_by_mcs, u, None), u
            rng, oracle_rng = random.Random(trial), random.Random(trial)
            expected = outcome(set_orient_by_mcs, u, oracle_rng)
            assert outcome(orient_by_mcs, u, rng) == expected, (u, trial)
            if chordal:  # the same draws, in the same order
                assert rng.getstate() == oracle_rng.getstate()
        assert not_chordal >= 50


@settings(max_examples=80, deadline=None)
@given(chain_graphs())
def test_directed_edges_cross_components_forward(g):
    idx = chain_components(g).index_of
    for u, v in g.directed:
        assert idx[u] < idx[v]


@settings(max_examples=80, deadline=None)
@given(chain_graphs())
def test_descendants_leave_the_component(g):
    comp = chain_components(g).component_of
    for x in g.nodes:
        for d in family(g, {x}, "de"):
            assert comp[d] is not comp[x]


@st.composite
def edge_sets(draw, max_nodes: int = 6):
    """Arbitrary edge sets, cyclic or not: (nodes, pairs, per-pair states)."""
    nodes = node_names(draw(st.integers(min_value=1, max_value=max_nodes)))
    edges, states = [], []
    for p in combinations(nodes, 2):
        s = draw(st.sampled_from((None, _UND, _FWD, _REV)), label=f"state {p}")
        if s is not None:
            edges.append(p)
            states.append(s)
    return nodes, edges, tuple(states)


@settings(max_examples=300, deadline=None)
@given(edge_sets())
def test_validation_matches_the_independent_cycle_check(case):
    # validation, parsing and the bare constructor accept the same edge sets
    # and name the same witness
    nodes, edges, states = case
    directed = [(a, b) if s == _FWD else (b, a) for (a, b), s in zip(edges, states) if s != _UND]
    undirected = [e for e, s in zip(edges, states) if s == _UND]
    document = "".join(f"node {n}\n" for n in nodes)
    document += "".join(f"edge {u} -> {v}\n" for u, v in directed)
    document += "".join(f"edge {a} -- {b}\n" for a, b in undirected)
    outcomes = []
    for build in (
        lambda: validate_chain_graph(nodes, directed, undirected),
        lambda: parse_graph(document),
        lambda: ChainGraph(frozenset(nodes), frozenset(directed), frozenset(undirected)),
    ):
        try:
            outcomes.append(build())
        except SemidirectedCycleError as exc:
            outcomes.append(exc.cycle)
    g = outcomes[0]
    assert outcomes[1] == g and outcomes[2] == g
    if isinstance(g, list):
        assert not _semidirected_free(nodes, edges, states)
        steps = list(zip(g, g[1:]))
        assert g[0] == g[-1]
        assert all((a, b) in directed or pair(a, b) in undirected for a, b in steps)
        assert any((a, b) in directed for a, b in steps)
        return
    assert _semidirected_free(nodes, edges, states)
    idx = chain_components(g).index_of
    assert all(idx[u] < idx[v] for u, v in g.directed)


class TestComponentOrderOracle:
    @settings(max_examples=150, deadline=None)
    @given(chain_graphs(max_nodes=7))
    def test_components_match_the_set_oracle(self, g):
        expected = set_component_order(g.nodes, g.directed, g.undirected)
        assert list(chain_components(g).components) == expected

    @settings(max_examples=300, deadline=None)
    @given(edge_sets())
    def test_any_edge_set_orders_as_the_set_oracle(self, case):
        nodes, edges, states = case
        directed = frozenset(
            (a, b) if s == _FWD else (b, a) for (a, b), s in zip(edges, states) if s != _UND
        )
        undirected = frozenset(e for e, s in zip(edges, states) if s == _UND)
        order = _component_order(_graph_index(nodes, directed, undirected))
        expected = set_component_order(nodes, directed, undirected)
        if expected is None:
            assert order is None
            with pytest.raises(SemidirectedCycleError):
                ChainGraph(frozenset(nodes), directed, undirected)
        else:
            names = sorted(nodes)
            assert [frozenset(names[i] for i in comp) for comp in order] == expected
            g = ChainGraph(frozenset(nodes), directed, undirected)
            assert list(chain_components(g).components) == expected
