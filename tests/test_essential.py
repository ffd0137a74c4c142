import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from ampcg import (
    apply_rules_R,
    double_block_chordless_cycles,
    enumerate_class,
    equivalent,
    essential_from_class,
    essential_graph,
    node_names,
    pair,
    random_chain_graph,
    separated,
    unmarked_skeleton,
)
from ampcg.equivalence import _triplex_keys
from ampcg.essential import MarkedGraph, _r3_instances, chordless_cycles
from ampcg.strong import _s3

from .support import cg, chordless_cycle_orders, marked_graphs


class TestTriplexMembership:
    def test_separating_sets_contain_exactly_the_non_triplex_middles(self):
        # the fact R1, R2 and R4 rely on: every non-adjacent pair has a
        # separating set, and each one holds a common neighbor b exactly when
        # a ~ b ~ c is not a triplex
        rnd = random.Random(13)
        for _ in range(150):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 6)),
                                   p_undirected=0.3, p_directed=0.3)
            t = _triplex_keys(g)
            for a, c in combinations(g.sorted_nodes, 2):
                if g.is_adjacent(a, c):
                    continue
                rest = sorted(g.nodes - {a, c})
                zs = [frozenset(z) for k in range(len(rest) + 1)
                      for z in combinations(rest, k)]
                separating = [z for z in zs if separated(g, {a}, {c}, z)]
                assert separating, (a, c)
                shared = g.adjacency[a] & g.adjacency[c]
                for z in separating:
                    for b in shared:
                        assert (b in z) == ((b, pair(a, c)) not in t)


class TestRules:
    def test_r1_blocks_both_far_ends(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        m = apply_rules_R(unmarked_skeleton(g), _triplex_keys(g), rules=("R1",))
        assert m.blocked == {("A", "B"), ("C", "B")}

    def test_r1_respects_separator_membership(self):
        g = cg("ABC", [("A", "B"), ("B", "C")])
        m = apply_rules_R(unmarked_skeleton(g), _triplex_keys(g))
        assert not m.blocked

    def test_r2_propagates_from_a_block(self):
        g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        m = apply_rules_R(unmarked_skeleton(g), _triplex_keys(g))
        assert ("C", "D") in m.blocked and ("D", "C") not in m.blocked

    def test_fixpoint_is_order_independent(self):
        rnd = random.Random(99)
        for trial in range(100):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 6)),
                                   p_undirected=0.3, p_directed=0.3)
            t = _triplex_keys(g)
            m0 = unmarked_skeleton(g)
            reference = apply_rules_R(m0, t)
            for k in range(10):
                shuffled = apply_rules_R(m0, t, rng=random.Random(trial * 100 + k))
                assert shuffled.blocked == reference.blocked

    def test_unknown_rule_rejected(self):
        g = cg("AB", [], [("A", "B")])
        with pytest.raises(ValueError):
            apply_rules_R(unmarked_skeleton(g), _triplex_keys(g), rules=("R9",))


class TestLine5:
    def _plain_cycle(self, *edges):
        nodes = sorted({n for e in edges for n in e})
        return unmarked_skeleton(cg(nodes, [], list(edges)))

    def test_four_cycle_double_blocked(self):
        m = self._plain_cycle(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))
        out = double_block_chordless_cycles(m)
        assert all(out.doubly_blocked(a, b) for a, b in m.skeleton)

    def test_triangle_untouched(self):
        m = self._plain_cycle(("A", "B"), ("B", "C"), ("A", "C"))
        assert double_block_chordless_cycles(m).blocked == frozenset()

    def test_cycle_with_existing_block_untouched(self):
        m = self._plain_cycle(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))
        m = m.with_blocks([("A", "B")])
        out = double_block_chordless_cycles(m)
        assert out.blocked == m.blocked

    def test_chordless_cycle_enumeration_is_canonical(self):
        m = self._plain_cycle(
            ("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("D", "E"), ("C", "E")
        )
        cycles = chordless_cycles(m, min_len=3)
        assert ["A", "B", "C", "D"] in cycles
        assert ["C", "D", "E"] in cycles
        assert len(cycles) == 2


@settings(max_examples=150, deadline=None)
@given(marked_graphs(max_nodes=7))
def test_chordless_searches_match_brute_force(m):
    orders = chordless_cycle_orders(m)

    def blocked_walk(order):
        return all((u, w) in m.blocked for u, w in zip(order, order[1:]))

    # R3 blocks a at a ~ b closing a cycle a ~ ... ~ b blocked at every near end
    r3 = {(o[0], o[-1]) for o in orders if blocked_walk(o) and (o[0], o[-1]) not in m.blocked}
    assert {next(iter(adds)) for _, adds in _r3_instances(m, None)} == r3
    # S3: at least four nodes, the closing end and a ~ b singly blocked
    s3 = {
        (o[0], o[-1])
        for o in orders
        if len(o) >= 4
        and blocked_walk(o[:-1])
        and m.singly_blocked(o[-2], o[-1])
        and m.singly_blocked(o[0], o[-1])
    }
    assert _s3(m) == s3
    for min_len in (3, 4):
        for edge_ok in (None, m.plain_edge, m.is_blocked):
            ok = edge_ok or (lambda u, v: True)
            canonical = sorted(
                list(o)
                for o in orders
                if len(o) >= min_len
                and o[0] == min(o)
                and o[1] < o[-1]
                and all(ok(u, v) for u, v in zip(o, o[1:] + o[:1]))
            )
            assert chordless_cycles(m, min_len=min_len, edge_ok=edge_ok) == canonical


class TestEssentialGraph:
    def test_flag_normalizes_to_collider(self):
        g = cg("ABC", [("A", "B")], [("B", "C")])
        assert essential_graph(g).graph == cg("ABC", [("A", "B"), ("C", "B")])

    def test_single_undirected_edge(self):
        g = cg("AB", [], [("A", "B")])
        assert essential_graph(g).graph == g

    def test_collider_with_tail(self):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        assert essential_graph(g).graph == g

    def test_matches_class_oracle_on_random_graphs(self):
        rnd = random.Random(3)
        for _ in range(120):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            assert essential_graph(g).graph == essential_from_class(enumerate_class(g))

    def test_idempotent_and_equivalent(self):
        rnd = random.Random(5)
        for _ in range(60):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            eg = essential_graph(g).graph
            assert equivalent(g, eg)
            assert essential_graph(eg).graph == eg

    def test_returns_marks_and_separators(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        result = essential_graph(g)
        assert isinstance(result.marks, MarkedGraph)
        assert result.triplexes == _triplex_keys(g)
        assert result.marks.finalize() == result.graph

    def test_degenerate_graphs(self):
        empty = cg([])
        assert essential_graph(empty).graph == empty
        single = cg("A")
        assert essential_graph(single).graph == single
        # a lone arrow is not essential: its class contains both directions
        arrow = cg("ABC", [("A", "B")])
        assert essential_graph(arrow).graph == cg("ABC", [], [("A", "B")])
