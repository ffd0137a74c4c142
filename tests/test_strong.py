import random
import time

import pytest

from ampcg import (
    accelerator_labels,
    apply_rules_R,
    enumerate_class,
    essential_graph,
    label_strong,
    node_names,
    random_chain_graph,
    strong_labeling,
    strong_oracle,
    unmarked_skeleton,
)
from ampcg import essential
from ampcg.errors import InvalidStateError, InvariantViolationError
from ampcg.essential import RULE_NAMES, MarkedGraph
from ampcg.strong import _propagate

from .support import cg


def _pipeline(g):
    result = essential_graph(g)
    return result, label_strong(result.marks, result.triplexes, check_invariants=True)


class TestLabelStrong:
    def test_collider_with_tail_has_no_strong_edges(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        _, lab = _pipeline(g)
        assert not lab.strong_directed and not lab.strong_undirected

    def test_collider_with_child(self):
        g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        _, lab = _pipeline(g)
        assert lab.strong_directed == {("C", "D")}
        assert not lab.strong_undirected

    def test_two_step_disjunction(self):
        g = cg("ABCDE", [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")])
        _, lab = _pipeline(g)
        assert lab.strong_directed == {("C", "D"), ("D", "E")}

    def test_four_cycle_all_strong_undirected(self):
        g = cg("ABCD", [], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        _, lab = _pipeline(g)
        assert lab.strong_undirected == g.undirected
        assert not lab.strong_directed

    def test_requires_settled_marks(self):
        g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        result = essential_graph(g)
        # one propagation consequent is missing, so the marks are not settled
        unsettled = unmarked_skeleton(g).with_blocks([("A", "C"), ("B", "C")])
        with pytest.raises(InvalidStateError):
            label_strong(unsettled, result.triplexes)

    def test_shortcut_labels_match_checked_labels(self):
        rnd = random.Random(23)
        for _ in range(120):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            result = essential_graph(g)
            m, t = result.marks, result.triplexes
            assert label_strong(m, t) == label_strong(m, t, check_invariants=True)

    def test_checked_mode_rejects_an_unconfirmed_shortcut_label(self, monkeypatch):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        result = essential_graph(g)
        monkeypatch.setattr("ampcg.strong._s1", lambda m: {("A", "B")})
        with pytest.raises(InvariantViolationError, match="shortcut labels"):
            label_strong(result.marks, result.triplexes, check_invariants=True)

    def test_checked_mode_reports_a_semidirected_cycle(self, monkeypatch):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        result = essential_graph(g)
        # every re-blocking fixpoint becomes a triangle blocked in one
        # rotational sense, which finalizes to a semidirected cycle
        one_sense = MarkedGraph(
            nodes=frozenset("ABC"),
            skeleton=frozenset({("A", "B"), ("B", "C"), ("A", "C")}),
            blocked=frozenset({("A", "B"), ("B", "C"), ("C", "A")}),
        )

        def reblock(m, t, rules=RULE_NAMES, new=None):
            return one_sense if rules == ("R2", "R3") else apply_rules_R(m, t, rules, new)

        monkeypatch.setattr("ampcg.strong.apply_rules_R", reblock)
        with pytest.raises(InvariantViolationError, match="semidirected cycle"):
            label_strong(result.marks, result.triplexes, check_invariants=True)

    def test_labels_a_120_node_graph_in_seconds(self):
        # enumerating every chordless cycle R3 might use takes minutes here
        rnd = random.Random(120)
        random_chain_graph(rnd, node_names(120), 0.01, 0.017)
        g = random_chain_graph(rnd, node_names(120), 0.01, 0.017)
        result = essential_graph(g)
        start = time.perf_counter()
        lab = label_strong(result.marks, result.triplexes)
        assert time.perf_counter() - start < 5.0
        assert lab == label_strong(result.marks, result.triplexes, check_invariants=True)

    def test_re_blocking_a_200_node_graph_walks_only_from_the_new_block(self, monkeypatch):
        # full rescans of R3 per re-blocked copy made 39 639 walks here
        g = random_chain_graph(random.Random(200), node_names(200), 0.006, 0.01)
        result = essential_graph(g)
        calls = 0
        walk = essential._path_exists

        def counted(*args):
            nonlocal calls
            calls += 1
            return walk(*args)

        with monkeypatch.context() as patch:
            patch.setattr("ampcg.essential._path_exists", counted)
            patch.setattr("ampcg.strong._path_exists", counted)
            lab = label_strong(result.marks, result.triplexes)
        assert calls <= 10_000
        assert lab == label_strong(result.marks, result.triplexes, check_invariants=True)

    def test_one_labeling_builds_the_adjacency_once(self, monkeypatch):
        # every re-blocked copy and fixpoint shares the skeleton's adjacency
        g = random_chain_graph(random.Random(30), node_names(30), 0.04, 0.07)
        builds = 0
        build = MarkedGraph.adjacency.func

        def counted(m):
            nonlocal builds
            builds += 1
            return build(m)

        monkeypatch.setattr(MarkedGraph.adjacency, "func", counted)
        strong_labeling(g)
        assert builds == 1
        assert len(essential_graph(g).marks.edges_blocked_at_one_end()) >= 10

    def test_matches_oracle_on_random_graphs(self):
        rnd = random.Random(29)
        for _ in range(120):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            _, lab = _pipeline(g)
            summary = strong_oracle(enumerate_class(g))
            assert lab.strong_directed == summary.directed
            assert lab.strong_undirected == summary.undirected


class TestAccelerator:
    def test_s1_instance(self):
        g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        result = essential_graph(g)
        assert accelerator_labels(result.marks) == {("C", "D")}

    def test_rules_alone_miss_the_disjunctive_step(self):
        g = cg("ABCDE", [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")])
        result, lab = _pipeline(g)
        rules_only = accelerator_labels(result.marks)
        full = lab.strong_directed
        assert rules_only == {("C", "D")}
        assert rules_only < full  # strict: D->E needs the re-blocking check

    def test_s4_propagates_known_labels(self):
        g = cg("ABCDE", [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")])
        result = essential_graph(g)
        propagated = _propagate(result.marks, {("C", "D")})
        assert ("D", "E") in propagated

    def test_s2_uses_double_blocks(self):
        # strong undirected square with a fifth node pointing in:
        # X -> A on the 4-cycle A--B--C--D--A forces X -> A in every member
        g = cg(
            "ABCDX",
            [("X", "A")],
            [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")],
        )
        result = essential_graph(g)
        assert ("X", "A") in accelerator_labels(result.marks)
        summary = strong_oracle(enumerate_class(g))
        assert ("X", "A") in summary.directed

    def test_empty_marks_yield_nothing(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C")])
        result = essential_graph(g)
        assert accelerator_labels(result.marks) == frozenset()

    def test_soundness_on_random_graphs(self):
        rnd = random.Random(31)
        for _ in range(150):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            result, lab = _pipeline(g)
            assert accelerator_labels(result.marks) <= lab.strong_directed
            assert _propagate(result.marks, set(lab.strong_directed)) <= lab.strong_directed


def test_strong_labeling_convenience_matches_pipeline():
    g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
    result, lab = _pipeline(g)
    assert strong_labeling(g) == lab
