import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcg import (
    apply_rules_R,
    double_block_chordless_cycles,
    enumerate_class,
    equivalent,
    essential_from_class,
    essential_graph,
    label_strong,
    node_names,
    pair,
    random_chain_graph,
    separated,
    triplexes,
    unmarked_skeleton,
)
from ampcg.essential import RULE_NAMES, MarkedGraph, _path_exists
from ampcg.strong import _s3

from .support import (
    FINDERS,
    cg,
    chordless_cycle_orders,
    doubly_blocked,
    edges_blocked_at_one_end,
    is_adjacent,
    marked_graphs,
    r3_instances,
    set_path_exists,
    singly_blocked,
    sweep_fixpoint,
    undirected_grid,
)


class TestTriplexMembership:
    def test_separating_sets_contain_exactly_the_non_triplex_middles(self):
        # the fact R1, R2 and R4 rely on: every non-adjacent pair has a
        # separating set, and each one holds a common neighbor b exactly when
        # a ~ b ~ c is not a triplex
        rnd = random.Random(13)
        for _ in range(150):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 6)),
                                   p_undirected=0.3, p_directed=0.3)
            t = triplexes(g)
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
        m = apply_rules_R(unmarked_skeleton(g), triplexes(g), rules=("R1",))
        assert m.blocked == {("A", "B"), ("C", "B")}

    def test_r1_respects_separator_membership(self):
        g = cg("ABC", [("A", "B"), ("B", "C")])
        m = apply_rules_R(unmarked_skeleton(g), triplexes(g))
        assert not m.blocked

    def test_r2_propagates_from_a_block(self):
        g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        m = apply_rules_R(unmarked_skeleton(g), triplexes(g))
        assert ("C", "D") in m.blocked and ("D", "C") not in m.blocked

    def test_fixpoint_is_order_independent(self):
        rnd = random.Random(99)
        for trial in range(100):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 6)),
                                   p_undirected=0.3, p_directed=0.3)
            t = triplexes(g)
            m0 = unmarked_skeleton(g)
            reference = apply_rules_R(m0, t)
            for k in range(10):
                shuffled = sweep_fixpoint(m0, t, rng=random.Random(trial * 100 + k))
                assert shuffled.blocked == reference.blocked

    def test_unknown_rule_rejected(self):
        g = cg("AB", [], [("A", "B")])
        with pytest.raises(ValueError):
            apply_rules_R(unmarked_skeleton(g), triplexes(g), rules=("R9",))

    def test_new_blocks_must_be_blocks_of_m(self):
        g = cg("AB", [], [("A", "B")])
        with pytest.raises(ValueError, match="not blocks of m"):
            apply_rules_R(unmarked_skeleton(g), triplexes(g), new={("A", "B")})


@settings(max_examples=150, deadline=None)
@given(marked_graphs(max_nodes=7), st.data())
def test_worklist_matches_the_sweep_oracle(m, data):
    # arbitrary marks and an arbitrary triplex set over the induced paths;
    # then a few extra blocks on the oracle's fixpoint, drawn from `new` alone
    paths = [
        (b, pair(a, c))
        for b in m.sorted_nodes
        for a, c in combinations(sorted(m.adjacency[b]), 2)
        if not is_adjacent(m, a, c)
    ]
    t = frozenset(p for p in paths if data.draw(st.booleans(), label=f"triplex {p}"))
    ends = sorted(end for a, b in m.skeleton for end in ((a, b), (b, a)))
    extra = data.draw(st.sets(st.sampled_from(ends), max_size=3)) if ends else set()
    for rules in (RULE_NAMES, ("R2", "R3", "R4"), ("R2", "R3")):
        fixpoint = sweep_fixpoint(m, t, rules)
        assert apply_rules_R(m, t, rules) == fixpoint
        more = fixpoint.with_blocks(extra)
        assert apply_rules_R(more, t, rules, new=extra) == sweep_fixpoint(more, t, rules)


class TestLine5:
    def _plain_cycle(self, *edges):
        nodes = sorted({n for e in edges for n in e})
        return unmarked_skeleton(cg(nodes, [], list(edges)))

    def test_four_cycle_double_blocked(self):
        m = self._plain_cycle(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))
        out = double_block_chordless_cycles(m)
        assert all(doubly_blocked(out, a, b) for a, b in m.skeleton)

    def test_triangle_untouched(self):
        m = self._plain_cycle(("A", "B"), ("B", "C"), ("A", "C"))
        assert double_block_chordless_cycles(m).blocked == frozenset()

    def test_cycle_with_existing_block_untouched(self):
        m = self._plain_cycle(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))
        m = m.with_blocks([("A", "B")])
        out = double_block_chordless_cycles(m)
        assert out.blocked == m.blocked


def _cycle_edges(order):
    return zip(order, order[1:] + order[:1])


def _exact_r3(m, orders):
    # R3 blocks a at a ~ b closing a cycle a ~ ... ~ b blocked at every near end
    return {
        (o[0], o[-1])
        for o in orders
        if all((u, w) in m.blocked for u, w in zip(o, o[1:]))
        and (o[0], o[-1]) not in m.blocked
    }


def _exact_s3(m, orders):
    # S3: at least four nodes, the closing end and a ~ b singly blocked
    return {
        (o[0], o[-1])
        for o in orders
        if len(o) >= 4
        and all((u, w) in m.blocked for u, w in zip(o[:-1], o[1:-1]))
        and singly_blocked(m, o[-2], o[-1])
        and singly_blocked(m, o[0], o[-1])
    }


def _exact_double_blocks(m, orders):
    # both ends of every edge on a chordless all-plain cycle of four or more
    return {
        end
        for o in orders
        if len(o) >= 4 and all(m.plain_edge(u, v) for u, v in _cycle_edges(o))
        for u, v in _cycle_edges(o)
        for end in ((u, v), (v, u))
    }


@settings(max_examples=150, deadline=None)
@given(marked_graphs(max_nodes=7))
def test_chordless_searches_match_brute_force(m):
    # on arbitrary marks the walk searches find every chordless cycle, and
    # may also fire on a walk with an inner chord (the next test covers the
    # states where they must agree)
    orders = chordless_cycle_orders(m)
    assert _exact_r3(m, orders) <= {next(iter(adds)) for _, adds in r3_instances(m, None)}
    assert _exact_s3(m, orders) <= _s3(m)
    added = double_block_chordless_cycles(m).blocked - m.blocked
    assert _exact_double_blocks(m, orders) <= added


@settings(max_examples=150, deadline=None)
@given(marked_graphs(max_nodes=7))
def test_mask_walk_matches_the_set_walk(m):
    # the blocked-step walk of R3 and S3 and the plain walk of double-blocking
    adj, pos = m.index.adj, m.index.pos
    out, inn = m.block_masks
    plain = [adj[i] & ~out[i] & ~inn[i] for i in range(len(adj))]
    for u, v in m.skeleton:
        for a, b in ((u, v), (v, u)):
            i, k = pos[a], pos[b]
            along_blocks = set_path_exists(
                m.adjacency, a, b, m.is_blocked, lambda w: m.is_blocked(w, b)
            )
            assert _path_exists(adj, out, i, k, inn[k]) == along_blocks
            along_plain = set_path_exists(
                m.adjacency, a, b, m.plain_edge, lambda w: m.plain_edge(w, b)
            )
            assert _path_exists(adj, plain, i, k, plain[k]) == along_plain


def test_reachability_rules_match_exact_search_on_reachable_states():
    orders = {}

    def exact_r3(m, t):
        for a, b in sorted(_exact_r3(m, orders[m.skeleton])):
            yield ("R3", frozenset({(a, b)}))

    exact_finders = {**FINDERS, "R3": exact_r3}

    def both_fixpoints(m, t, rules, new=None):
        exact = sweep_fixpoint(m, t, rules, finders=exact_finders)
        reach = apply_rules_R(m, t, rules, new=new)
        assert reach.blocked == exact.blocked
        return reach

    rnd = random.Random(37)
    double_blocked = copies = 0
    for _ in range(400):
        g = random_chain_graph(rnd, node_names(rnd.randint(4, 7)),
                               p_undirected=0.4, p_directed=0.25)
        t = triplexes(g)
        m = unmarked_skeleton(g)
        orders[g.skeleton] = chordless_cycle_orders(m)
        m = both_fixpoints(m, t, RULE_NAMES)
        for x, y, c in combinations(m.sorted_nodes, 3):
            sides = [(x, y), (y, c), (x, c)]
            if all(is_adjacent(m, u, v) for u, v in sides):
                assert sum(m.plain_edge(u, v) for u, v in sides) != 2
        added = double_block_chordless_cycles(m).blocked - m.blocked
        assert added == _exact_double_blocks(m, orders[g.skeleton])
        double_blocked += bool(added)
        m = both_fixpoints(m.with_blocks(added), t, ("R2", "R3", "R4"), new=added)
        assert m.blocked == essential_graph(g).marks.blocked
        assert _s3(m) == _exact_s3(m, orders[g.skeleton])
        for x, y in edges_blocked_at_one_end(m):
            both_fixpoints(m.with_blocks([(y, x)]), t, ("R2", "R3"), new={(y, x)})
            copies += 1
    assert double_blocked >= 90 and copies >= 500


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
        assert result.triplexes == triplexes(g)
        assert result.marks.finalize() == result.graph

    def test_degenerate_graphs(self):
        empty = cg([])
        assert essential_graph(empty).graph == empty
        single = cg("A")
        assert essential_graph(single).graph == single
        # a lone arrow is not essential: its class contains both directions
        arrow = cg("ABC", [("A", "B")])
        assert essential_graph(arrow).graph == cg("ABC", [], [("A", "B")])


@pytest.mark.parametrize("k", [8, 10])
def test_undirected_grid_is_fast_and_doubly_blocked(k):
    # every grid edge lies on a chordless 4-cycle, so every edge ends doubly
    # blocked; a grid has exponentially many chordless cycles
    g = undirected_grid(k)
    start = time.perf_counter()
    result = essential_graph(g)
    assert time.perf_counter() - start < 1.0
    assert all(doubly_blocked(result.marks, a, b) for a, b in g.skeleton)
    lab = label_strong(result.marks, result.triplexes)
    assert lab.strong_undirected == g.undirected and not lab.strong_directed
