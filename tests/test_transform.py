import random

import pytest
from hypothesis import given, settings

from ampcg import (
    ChainGraph,
    chain_components,
    class_by_merge_split,
    enumerate_class,
    equivalent,
    essential_graph,
    feasible_merge_check,
    feasible_merges,
    maximally_oriented,
    maximally_oriented_members,
    merge,
    minimally_oriented,
    node_names,
    random_chain_graph,
    serialize_graph,
    split,
    strong_oracle,
)
from ampcg import graphs, oracle, strong, transform
from ampcg.cli import cli
from ampcg.errors import (
    InfeasibleMergeError,
    InfeasibleSplitError,
    NotComponentsError,
    TooLargeError,
)
from ampcg.oracle import _split_candidates, has_feasible_split
from ampcg.transform import _merge_candidates, _split_result

from .support import cg, chain_graphs, greedy_maximally_oriented


class TestFeasibleMerge:
    def test_merges_read_the_order_computed_at_construction(self, monkeypatch):
        calls = 0
        order = graphs._component_order

        def counted(*args):
            nonlocal calls
            calls += 1
            return order(*args)

        monkeypatch.setattr(graphs, "_component_order", counted)
        g = random_chain_graph(random.Random(30), node_names(30), 0.04, 0.07)
        assert calls == 1
        merges = feasible_merges(g)
        for _ in range(3):
            assert feasible_merges(g) == merges
            assert chain_components(g) is chain_components(g)
        assert len(chain_components(g).components) > 10
        assert calls == 1

    def test_collider_merge_is_feasible(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        assert feasible_merge_check(g, {"A"}, {"B"})
        assert merge(g, {"A"}, {"B"}) == cg("ABC", [("C", "B")], [("A", "B")])

    def test_partial_children_fail_condition_one(self):
        g = cg("XYZ", [("X", "Y")], [("Y", "Z")])
        assert not feasible_merge_check(g, {"X"}, {"Y", "Z"})
        with pytest.raises(InfeasibleMergeError):
            merge(g, {"X"}, {"Y", "Z"})

    def test_semidirected_reach_blocks_the_merge(self):
        # A->C, A->D, B->C, B--D: turning A->C undirected would close a cycle
        g = cg("ABCD", [("A", "C"), ("A", "D"), ("B", "C")], [("B", "D")])
        assert not feasible_merge_check(g, {"A"}, {"C"})

    def test_not_components(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        with pytest.raises(NotComponentsError):
            feasible_merge_check(g, {"A", "B"}, {"C"})

    def test_merges_preserve_equivalence(self):
        rnd = random.Random(61)
        for _ in range(100):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            for upper, lower in feasible_merges(g):
                assert equivalent(g, merge(g, upper, lower))


class TestSplit:
    def test_single_undirected_edge(self):
        g = cg("AB", [], [("A", "B")])
        assert split(g, {"A", "B"}, {"A"}, {"B"}) == cg("AB", [("A", "B")])

    def test_collider_tail_split(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        out = split(g, {"C", "D"}, {"D"}, {"C"})
        assert out == cg("ABCD", [("A", "B"), ("C", "B"), ("D", "C")])
        assert out in enumerate_class(g)

    def test_triplex_creating_split_is_infeasible(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C")])
        with pytest.raises(InfeasibleSplitError):
            split(g, {"A", "B", "C"}, {"A", "C"}, {"B"})

    def test_bad_partition(self):
        g = cg("AB", [], [("A", "B")])
        with pytest.raises(NotComponentsError):
            split(g, {"A", "B"}, {"A", "B"}, set())

    def test_splits_preserve_equivalence(self):
        rnd = random.Random(67)
        for _ in range(100):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            for comp, upper in _split_candidates(g):
                result = _split_result(g, comp, upper)
                if result is not None:
                    assert equivalent(g, result)


class TestMinMaxOriented:
    def test_collider_minimally_oriented_members(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        mins = minimally_oriented(g)
        assert mins == {
            cg("ABC", [("A", "B")], [("B", "C")]),
            cg("ABC", [("C", "B")], [("A", "B")]),
        }

    def test_single_edge_maximally_oriented(self):
        g = cg("AB", [], [("A", "B")])
        assert maximally_oriented(g) in {cg("AB", [("A", "B")]), cg("AB", [("B", "A")])}

    def test_four_cycle_is_its_own_maximal_witness(self):
        g = cg("ABCD", [], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        assert maximally_oriented(g) == g
        assert maximally_oriented_members(g) == {g}

    def test_witnesses_share_undirected_edges(self):
        rnd = random.Random(71)
        for _ in range(80):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            w1 = greedy_maximally_oriented(g)
            w2 = greedy_maximally_oriented(g, reverse_order=True)
            members = maximally_oriented_members(g)
            assert maximally_oriented(g) in members
            assert {w1.undirected, w2.undirected} | {m.undirected for m in members} \
                == {w1.undirected}

    @settings(max_examples=150, deadline=None)
    @given(chain_graphs(max_nodes=7))
    def test_member_orients_only_the_essential_graphs_loose_edges(self, g):
        # the member is read off the marks: it keeps the essential graph's
        # arrows and its strong undirected edges and orients the rest
        result = essential_graph(g)
        w = maximally_oriented(g)
        assert w.skeleton == result.graph.skeleton
        assert w.directed >= result.graph.directed
        assert w.undirected == result.strong_undirected
        assert equivalent(w, g)

    def test_one_command_builds_two_chain_graphs(self, monkeypatch, tmp_path, capsys):
        # the parsed graph and the member: the member is read off the
        # essential graph's marks, with no essential graph built
        g = random_chain_graph(random.Random(12), node_names(12), 0.5, 0.1)
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        builds = 0
        check = ChainGraph._adopt

        def counted(self, *args):
            nonlocal builds
            builds += 1
            check(self, *args)

        monkeypatch.setattr(ChainGraph, "_adopt", counted)
        assert cli(["minmax", "--mode", "max", str(path)]) == 0
        assert builds == 2
        assert capsys.readouterr().out == serialize_graph(maximally_oriented(g))

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["minmax", "--mode", "max"], 0),
            (["adjust", "--x", "V0"], 0),
            (["bound", "--x", "V0", "--y", "V5"], 0),
            (["strong"], 1),
        ],
    )
    def test_only_printed_arrows_are_searched_for(self, monkeypatch, tmp_path, argv, calls):
        # the member and the adjusting sets read the essential graph's
        # doubly blocked edges; only `ampcg strong` prints strong arrows
        g = random_chain_graph(random.Random(12), node_names(12), 0.5, 0.1)
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        data = tmp_path / "data.csv"
        assert cli(["sample", str(path), "--n", "200", "--out", str(data)]) == 0
        labelings = 0
        label = strong.label_strong

        def counted(*args, **kwargs):
            nonlocal labelings
            labelings += 1
            return label(*args, **kwargs)

        monkeypatch.setattr(strong, "label_strong", counted)
        monkeypatch.setattr("ampcg.cli.label_strong", counted)
        extra = ["--data", str(data)] if argv[0] == "bound" else []
        assert cli([argv[0], str(path), *argv[1:], *extra]) == 0
        assert labelings == calls

    def test_no_feasible_split_on_large_components(self):
        rnd = random.Random(83)
        checked = 0
        while checked < 12:
            g = random_chain_graph(rnd, node_names(12), p_undirected=0.2, p_directed=0.15)
            if max(len(c) for c in chain_components(g).components) < 8:
                continue
            w = maximally_oriented(g)
            assert equivalent(g, w), g
            assert not has_feasible_split(w, max_edges=len(w.skeleton)), g
            checked += 1

    def test_split_search_refuses_past_its_cap(self, monkeypatch):
        # 17 edges: refused before any of the 2^18 bipartitions is tried
        names = node_names(18)
        path = cg(names, [], list(zip(names, names[1:])))
        monkeypatch.setattr(oracle, "_split_result", None)
        with pytest.raises(TooLargeError, match="17 edges exceeds the split search cap of 16"):
            has_feasible_split(path)

    def test_strong_arrows_live_in_every_minimally_oriented_member(self):
        rnd = random.Random(73)
        for _ in range(60):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            cls = enumerate_class(g)
            mins = minimally_oriented(g)
            summary = strong_oracle(cls)
            in_all_mins = {
                e for m in cls for e in m.directed if all(e in n.directed for n in mins)
            }
            assert summary.directed == in_all_mins


class TestClassByMergeSplit:
    @pytest.mark.parametrize(
        "graph, size",
        [
            (cg("AB", [], [("A", "B")]), 3),
            (cg("ABC", [("A", "B"), ("C", "B")]), 3),
            (cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")]), 8),
        ],
    )
    def test_known_sizes(self, graph, size):
        cls = class_by_merge_split(graph)
        assert len(cls) == size
        assert cls.members == enumerate_class(graph).members

    def test_matches_brute_force_on_random_graphs(self):
        rnd = random.Random(79)
        for _ in range(120):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            assert class_by_merge_split(g).members == enumerate_class(g).members

    def test_one_feasibility_check_per_merge_candidate(self, monkeypatch):
        checks = 0
        check = transform.feasible_merge_check

        def counted(*args):
            nonlocal checks
            checks += 1
            return check(*args)

        monkeypatch.setattr(transform, "feasible_merge_check", counted)
        cls = class_by_merge_split(cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")]))
        assert checks == sum(len(list(_merge_candidates(m))) for m in cls)
