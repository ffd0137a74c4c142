import dataclasses
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcg import (
    ChainGraph,
    chain_components,
    enumerate_class,
    essential_graph,
    family,
    maximally_oriented,
    parse_graph,
    random_chain_graph,
    triplexes,
    validate_chain_graph,
)
from ampcg.errors import (
    DuplicateEdgeError,
    NotChordalError,
    ParseError,
    SelfLoopError,
    SemidirectedCycleError,
    UnknownNodeError,
)
from ampcg.generate import node_names
from ampcg.graphs import (
    _component_order,
    _graph_index,
    _oriented,
    is_valid_name,
    pair,
)
from ampcg.oracle import _FWD, _REV, _UND
from ampcg.transform import _merged

from .support import (
    TailNotCompleteError,
    _eliminate,
    adjacency,
    cg,
    chain_graphs,
    is_chordal,
    is_complete,
    is_simplicial,
    orient_by_mcs,
    perfect_elimination_ending_with,
    random_chordal_graph,
    set_component_order,
    set_orient_by_mcs,
)


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

    def test_every_builder_gives_one_value(self):
        # the same edges from six builders: equal graphs with equal hashes,
        # whose name views are the input sets; the index is all a graph holds
        nodes = frozenset("ABCDE")
        directed = frozenset({("A", "C"), ("B", "C")})
        undirected = frozenset({("C", "D")})
        g = ChainGraph(nodes, directed, undirected)
        index = g.index
        builds = [
            g,
            validate_chain_graph("ABCDE", directed, [("D", "C")]),
            parse_graph("node E\nedge A -> C\nedge B -> C\nedge D -- C\n"),
            _oriented(index, index.ch, index.pa, (0,) * 5, ()),
            next(m for m in enumerate_class(g) if m.directed == directed),
            _merged(ChainGraph(nodes, directed | {("C", "D")}, ()), {"C"}, {"D"}),
        ]
        for h in builds:
            assert h == g and hash(h) == hash(g)
            assert (h.nodes, h.directed, h.undirected) == (nodes, directed, undirected)
            assert h.skeleton == {("A", "C"), ("B", "C"), ("C", "D")}
        assert [f.name for f in dataclasses.fields(ChainGraph)] == ["index"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.index = index

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

    @settings(max_examples=300)
    @given(
        st.text(st.sampled_from("Az09_-\n \xe9\u0663\u2160\uff21\U0001d400")) | st.text()
    )
    def test_a_name_is_a_run_of_ascii_letters_digits_and_underscores(self, name):
        assert is_valid_name(name) == bool(re.fullmatch(r"[A-Za-z0-9_]+", name))


_DOUBLED = (DuplicateEdgeError, "more than one edge between 'A' and 'B'")
_LINE2_DOUBLED = (DuplicateEdgeError, "line 2: more than one edge between 'A' and 'B'")


# One row per malformed edge list: the nodes and edges the bare constructor
# and `validate_chain_graph` take, the same edges as a document, and what the
# constructor, the validator and the parser do with them: (type, message)
# for a rejection, the graph built for an acceptance.  A document declares
# its nodes through its edges, so no document has an unknown end.
@pytest.mark.parametrize(
    "nodes, directed, undirected, document, bare, validated, parsed",
    [
        pytest.param(
            "A", [("A", "B")], [], None,
            (UnknownNodeError, "unknown node 'B'"), (UnknownNodeError, "unknown node 'B'"), None,
            id="unknown end",
        ),
        pytest.param(
            "A", [("A", "A")], [], "edge A -> A\n",
            (SelfLoopError, "self-loop at 'A'"), (SelfLoopError, "self-loop at 'A'"),
            (ParseError, "line 1: self-loop at 'A'"),
            id="self-loop",
        ),
        pytest.param(
            "AB", [("A", "B")], [("A", "B")], "edge A -> B\nedge A -- B\n",
            _DOUBLED, _DOUBLED, _LINE2_DOUBLED,
            id="doubled pair across kinds",
        ),
        pytest.param(
            "AB", [("A", "B"), ("B", "A")], [], "edge A -> B\nedge B -> A\n",
            _DOUBLED, _DOUBLED, _LINE2_DOUBLED,
            id="doubled pair in one list",
        ),
        pytest.param(
            "AB", [], [("B", "A")], "edge B -- A\n",
            (ValueError, "undirected edge ('B', 'A') is not in pair() order"),
            cg("AB", [], [("A", "B")]), cg("AB", [], [("A", "B")]),
            id="reversed undirected pair",
        ),
    ],
)
def test_every_entry_point_reports_a_malformed_edge_list(
    nodes, directed, undirected, document, bare, validated, parsed
):
    for build, expected in (
        (lambda: ChainGraph(frozenset(nodes), frozenset(directed), frozenset(undirected)), bare),
        (lambda: validate_chain_graph(nodes, directed, undirected), validated),
        (lambda: parse_graph(document), parsed),
    ):
        if expected is None:
            continue
        if isinstance(expected, ChainGraph):
            assert build() == expected
            continue
        kind, message = expected
        with pytest.raises(kind) as exc:
            build()
        assert type(exc.value) is kind and str(exc.value) == message


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

    def test_not_chordal_comes_before_an_incomplete_tail(self):
        g = cg("ABCD", [], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        with pytest.raises(NotChordalError):
            perfect_elimination_ending_with(g, ["A", "C"])

    def test_clique_first_order_ends_in_the_tail(self):
        rnd = random.Random(30)
        for trial in range(400):
            u = random_chordal_graph(rnd, node_names(rnd.randint(3, 30)))
            tail = _random_clique(rnd, u)
            _assert_elimination_ending_with(u, perfect_elimination_ending_with(u, tail), tail)

    def test_clique_first_order_on_a_dense_draw(self):
        u = random_chordal_graph(random.Random(200), node_names(200))
        assert len(u.undirected) == 19430
        tail = _random_clique(random.Random(1), u)
        _assert_elimination_ending_with(u, perfect_elimination_ending_with(u, tail), tail)

    def test_elimination_prefix_is_simplicial(self):
        rnd = random.Random(31)
        for trial in range(60):
            u = random_chordal_graph(rnd, node_names(rnd.randint(2, 7)))
            edges = sorted(u.undirected)
            tail = list(rnd.choice(edges)) if edges else [u.sorted_nodes[0]]
            order = perfect_elimination_ending_with(u, tail)
            assert list(order[-len(tail):]) == tail
            remaining, adj = set(u.nodes), adjacency(u)
            for v in order:
                nbrs = sorted(adj[v] & remaining)
                assert all(u.has_undirected(a, b) for a, b in combinations(nbrs, 2))
                remaining.discard(v)


def _random_clique(rnd: random.Random, g: ChainGraph) -> list[str]:
    """A random clique of g in random order, grown from a random node."""
    names, ne = g.sorted_nodes, g.index.ne
    clique = [rnd.randrange(len(names))]
    common = ne[clique[0]]
    while common and rnd.random() < 0.7:
        w = rnd.choice([i for i in range(len(names)) if common >> i & 1])
        clique.append(w)
        common &= ne[w]
    rnd.shuffle(clique)
    return [names[i] for i in clique]


def _assert_elimination_ending_with(g: ChainGraph, order, tail) -> None:
    """`order` ends in `tail`, and the neighbors that each node has later in
    it form a clique, checked on g's neighbor masks."""
    assert order[len(order) - len(tail):] == tuple(tail)
    assert sorted(order) == list(g.sorted_nodes)
    pos, ne = g.index.pos, g.index.ne
    later = 0
    for v in reversed(order):
        nbrs = x = ne[pos[v]] & later
        while x:
            low = x & -x
            assert not nbrs & ~low & ~ne[low.bit_length() - 1], (g, v)
            x ^= low
        later |= 1 << pos[v]


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
    idx = {n: i for i, comp in enumerate(chain_components(g).components) for n in comp}
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
        assert set_component_order(nodes, directed, undirected) is None
        steps = list(zip(g, g[1:]))
        assert g[0] == g[-1]
        assert all((a, b) in directed or pair(a, b) in undirected for a, b in steps)
        assert any((a, b) in directed for a, b in steps)
        return
    assert set_component_order(nodes, directed, undirected) is not None
    idx = {n: i for i, comp in enumerate(chain_components(g).components) for n in comp}
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


@settings(max_examples=150, deadline=None)
@given(chain_graphs(max_nodes=7))
def test_the_builder_reads_a_graph_back_from_its_own_marks(g):
    # each arrow blocked at its tail alone, each undirected edge at neither
    # end, no loose edges: the builder returns g, isolated nodes included
    index = g.index
    h = _oriented(index, index.ch, index.pa, (0,) * len(index.adj), ())
    assert h == g
    for field in ("nodes", "pos", "adj", "pa", "ne"):
        assert getattr(h.index, field) == getattr(index, field), field


@settings(max_examples=150, deadline=None)
@given(chain_graphs(max_nodes=7), st.integers(0, 2**32), st.integers(1, 10))
def test_hand_built_indexes_match_their_edges(g, seed, size):
    # the builders that hand their index to `ChainGraph._of` agree with
    # the index computed from the finished edge sets
    u = random_chordal_graph(random.Random(seed), node_names(size))
    for h in (essential_graph(g).graph, maximally_oriented(g), orient_by_mcs(u)):
        built, fresh = h.index, _graph_index(h.nodes, h.directed, h.undirected)
        for field in ("nodes", "pos", "adj", "pa", "ne"):
            assert getattr(built, field) == getattr(fresh, field), (h, field)
