import random

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
    random_chain_graph,
    separated,
    separator_table,
    unmarked_skeleton,
)
from ampcg.essential import MarkedGraph, SeparatorTable, _r3_instances, chordless_cycles
from ampcg.strong import _s3

from .support import cg, chordless_cycle_orders, marked_graphs


class TestSeparatorTable:
    def test_collider_pair_gets_empty_set(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        assert separator_table(g).get("A", "C") == frozenset()

    def test_chain_pair_uses_parent(self):
        g = cg("ABC", [("A", "B"), ("B", "C")])
        assert separator_table(g).get("A", "C") == {"B"}

    def test_undirected_path(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C")])
        assert separator_table(g).get("A", "C") == {"B"}

    def test_every_entry_is_a_witness(self):
        rnd = random.Random(13)
        for _ in range(80):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            table = separator_table(g)
            for (a, b), zs in table.items():
                assert separated(g, {a}, {b}, zs)
                assert not {a, b} & zs

    def test_neighborhood_recipe_can_fail_toward_the_excluded_endpoint(self):
        # A--C<-B: the a-side set {C} opens the route A--C<-B, so the verified
        # fallback must pick a different witness
        g = cg("ABC", [("B", "C")], [("A", "C")])
        assert not separated(g, "A", "B", "C")
        assert separator_table(g).get("A", "B") == frozenset()

    def test_both_recipe_sides_can_fail(self):
        # A->D, D--B, A->E, E->B: both neighborhood sets fail; {E} works
        g = cg("ABDE", [("A", "D"), ("A", "E"), ("E", "B")], [("B", "D")])
        assert not separated(g, "A", "B", set())          # a-side
        assert not separated(g, "A", "B", {"D", "E"})     # b-side
        assert separator_table(g).get("A", "B") == {"E"}


class TestRules:
    def test_r1_blocks_both_far_ends(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        m = apply_rules_R(unmarked_skeleton(g), separator_table(g), rules=("R1",))
        assert m.blocked == {("A", "B"), ("C", "B")}

    def test_r1_respects_separator_membership(self):
        g = cg("ABC", [("A", "B"), ("B", "C")])
        m = apply_rules_R(unmarked_skeleton(g), separator_table(g))
        assert not m.blocked

    def test_r2_propagates_from_a_block(self):
        g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        m = apply_rules_R(unmarked_skeleton(g), separator_table(g))
        assert ("C", "D") in m.blocked and ("D", "C") not in m.blocked

    def test_fixpoint_is_order_independent(self):
        rnd = random.Random(99)
        for trial in range(100):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 6)),
                                   p_undirected=0.3, p_directed=0.3)
            t = separator_table(g)
            m0 = unmarked_skeleton(g)
            reference = apply_rules_R(m0, t)
            for k in range(10):
                shuffled = apply_rules_R(m0, t, rng=random.Random(trial * 100 + k))
                assert shuffled.blocked == reference.blocked

    def test_unknown_rule_rejected(self):
        g = cg("AB", [], [("A", "B")])
        with pytest.raises(ValueError):
            apply_rules_R(unmarked_skeleton(g), separator_table(g), rules=("R9",))


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
        assert isinstance(result.separators, SeparatorTable)
        assert result.marks.finalize() == result.graph

    def test_degenerate_graphs(self):
        empty = cg([])
        assert essential_graph(empty).graph == empty
        single = cg("A")
        assert essential_graph(single).graph == single
        # a lone arrow is not essential: its class contains both directions
        arrow = cg("ABC", [("A", "B")])
        assert essential_graph(arrow).graph == cg("ABC", [], [("A", "B")])
