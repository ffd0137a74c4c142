import dataclasses
import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcg import (
    enumerate_class,
    equivalent,
    essential_from_class,
    essential_graph,
    label_strong,
    node_names,
    pair,
    random_chain_graph,
    separated,
    serialize_graph,
    triplexes,
)
from ampcg.cli import cli
from ampcg.equivalence import _triplex_masks
from ampcg.essential import (
    EssentialGraphResult,
    MarkedGraph,
    _key_masks,
    _one_end_blocked,
    _path_exists,
    _seed_r1,
)
from ampcg.errors import SemidirectedCycleError
from ampcg.strong import _s3

from .support import (
    FINDERS,
    RULE_NAMES,
    adjacency,
    apply_rules_R,
    cg,
    chain_graphs,
    chordless_cycle_orders,
    double_block_chordless_cycles,
    doubly_blocked,
    edges_blocked_at_one_end,
    is_adjacent,
    marked_graph,
    marked_graph_parts,
    marked_graphs,
    plain_edge,
    r3_instances,
    set_finalize,
    set_path_exists,
    set_triplexes,
    singly_blocked,
    sweep_fixpoint,
    undirected_grid,
    unmarked_skeleton,
    with_blocks,
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
                adj = adjacency(g)
                shared = adj[a] & adj[c]
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
    adj = adjacency(m)
    paths = [
        (b, pair(a, c))
        for b in sorted(m.nodes)
        for a, c in combinations(sorted(adj[b]), 2)
        if not is_adjacent(m, a, c)
    ]
    t = frozenset(p for p in paths if data.draw(st.booleans(), label=f"triplex {p}"))
    ends = sorted(end for a, b in m.skeleton for end in ((a, b), (b, a)))
    extra = data.draw(st.sets(st.sampled_from(ends), max_size=3)) if ends else set()
    for rules in (RULE_NAMES, ("R2", "R3", "R4"), ("R2", "R3")):
        fixpoint = sweep_fixpoint(m, t, rules)
        assert apply_rules_R(m, t, rules) == fixpoint
        more = with_blocks(fixpoint, extra)
        assert apply_rules_R(more, t, rules, new=extra) == sweep_fixpoint(more, t, rules)


@settings(max_examples=200, deadline=None)
@given(chain_graphs(max_nodes=7))
def test_index_read_masks_and_seeds_match_the_name_set(g):
    # the triplex masks read off the index equal those built from the set
    # oracle's keys, and their keys are R1's seeds, as apply_rules_R draws them
    t = set_triplexes(g)
    tri = _triplex_masks(g.index)
    assert tri == _key_masks(g.index, t)
    out, inn = [0] * len(tri), [0] * len(tri)
    seeds = _seed_r1(tri, out, inn)
    m = unmarked_skeleton(g)
    assert MarkedGraph(g.index, tuple(out), tuple(inn)) == apply_rules_R(m, t, rules=("R1",))
    names = g.index.nodes
    assert {(names[a], names[b]) for a, b in seeds} == {
        (end, b) for b, flank in t for end in flank
    }
    assert len(seeds) == len(set(seeds))


@settings(max_examples=200, deadline=None)
@given(chain_graphs(max_nodes=7))
def test_one_pass_equals_the_public_composition(g):
    m = _public_composition(g)
    result = essential_graph(g)
    assert result.marks == m
    assert result.triplexes == triplexes(g)
    assert result.graph == m.finalize()


def _public_composition(g):
    """The essential graph's marks through the public steps, whose R3 never
    reads g: fixpoint, double-blocking, fixpoint of the additions."""
    t = triplexes(g)
    fixpoint = apply_rules_R(unmarked_skeleton(g), t)
    doubled = double_block_chordless_cycles(fixpoint)
    additions = doubled.blocked - fixpoint.blocked
    return apply_rules_R(doubled, t, ("R2", "R3", "R4"), new=additions)


@pytest.mark.parametrize(
    "n, p_u, p_d, seed",
    [(30, 0.04, 0.07, 30), (100, 0.01, 0.016, 100), (100, 0.015, 0.02, 108), (200, 0.008, 0.012, 200)],
)
def test_one_pass_equals_the_public_composition_at_scale(n, p_u, p_d, seed):
    # R3 in `essential_graph` skips the ends g's arrows rule out; the public
    # steps keep the unrestricted R3 and must reach the same marks; R3 fires
    # in some draws of every row
    rnd = random.Random(seed)
    for _ in range(10):
        g = random_chain_graph(rnd, node_names(n), p_u, p_d)
        assert essential_graph(g).marks == _public_composition(g)


def test_every_class_member_gives_the_same_marks():
    # R3's skipped ends depend on which member g is, the marks must not
    rnd = random.Random(32)
    checked = 0
    while checked < 300:
        g = random_chain_graph(rnd, node_names(rnd.randint(3, 7)),
                               rnd.uniform(0.1, 0.6), rnd.uniform(0.1, 0.6))
        if len(g.skeleton) > 12:
            continue
        m = essential_graph(g).marks
        for h in enumerate_class(g).members:
            k = essential_graph(h).marks
            assert (k.index.nodes, k.out, k.inn) == (m.index.nodes, m.out, m.inn), (g, h)
        checked += 1


def test_graph_is_finalized_from_the_marks_when_read():
    g = random_chain_graph(random.Random(33), node_names(30), 0.04, 0.07)
    result = essential_graph(g)
    assert "graph" not in {f.name for f in dataclasses.fields(EssentialGraphResult)}
    assert "_finalized" not in vars(result.marks)
    assert result.graph is result.marks.finalize()
    assert result.graph is result.graph


def test_marks_are_a_plain_value_and_the_triplexes_a_plain_set():
    # the marks hold their three fields only; the triplex set that carries
    # the masks for a labeling equals and prints as the plain key set
    assert [f.name for f in dataclasses.fields(MarkedGraph)] == ["index", "out", "inn"]
    g = random_chain_graph(random.Random(33), node_names(30), 0.04, 0.07)
    result = essential_graph(g)
    assert result.triplexes == triplexes(g)
    assert repr(result.triplexes) == repr(frozenset(result.triplexes))


@settings(max_examples=200, deadline=None)
@given(marked_graphs())
def test_finalize_matches_the_name_level_finalization(m):
    # arbitrary marks may finalize to a semidirected cycle; both name it
    def outcome(finalize):
        try:
            return finalize(m)
        except SemidirectedCycleError as exc:
            return exc.cycle

    assert outcome(MarkedGraph.finalize) == outcome(set_finalize)


@settings(max_examples=200, deadline=None)
@given(marked_graphs())
def test_one_end_blocked_matches_the_name_level_list(m):
    names = m.index.nodes
    assert [(names[x], names[y]) for x, y in _one_end_blocked(m)] == edges_blocked_at_one_end(m)


def test_json_marks_finalize_to_the_printed_graph(tmp_path, capsys):
    # `ampcg --format json eg` prints the marks and builds no chain graph;
    # the marks it prints finalize to the graph `ampcg eg` prints
    rnd = random.Random(34)
    for n, p_u, p_d in [(100, 0.01, 0.016)] * 4 + [(30, 0.04, 0.07)] * 4:
        g = random_chain_graph(rnd, node_names(n), p_u, p_d)
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        assert cli(["--format", "json", "eg", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert cli(["eg", str(path)]) == 0
        text = capsys.readouterr().out
        edges = doc["edges"]
        skeleton = cg(doc["nodes"], [], [(e["u"], e["v"]) for e in edges])
        blocks = [(e["u"], e["v"]) for e in edges if e["blocked_u"]]
        blocks += [(e["v"], e["u"]) for e in edges if e["blocked_v"]]
        m = with_blocks(unmarked_skeleton(skeleton), blocks)
        assert serialize_graph(m.finalize()) == text


@settings(max_examples=100, deadline=None)
@given(marked_graph_parts(max_nodes=7), st.data())
def test_name_views_and_copy_isolation(parts, data):
    # the name sets are views of the masks; a copy with more blocks leaves
    # its source as it was and shares its index
    nodes, skeleton, blocked = parts
    m = marked_graph(*parts)
    out, inn = m.out, m.inn
    ends = sorted(end for a, b in skeleton for end in ((a, b), (b, a)))
    extra = data.draw(st.sets(st.sampled_from(ends), max_size=3)) if ends else set()
    h = with_blocks(m, extra)
    assert (m.nodes, m.skeleton, m.blocked) == (nodes, skeleton, blocked)
    assert (m.out, m.inn) == (out, inn)
    assert (h.nodes, h.skeleton, h.blocked) == (nodes, skeleton, blocked | extra)
    assert h.index is m.index


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
        m = with_blocks(m, [("A", "B")])
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
        if len(o) >= 4 and all(plain_edge(m, u, v) for u, v in _cycle_edges(o))
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
    adj, pos, out, inn = m.index.adj, m.index.pos, m.out, m.inn
    plain = [adj[i] & ~out[i] & ~inn[i] for i in range(len(adj))]
    nbrs = adjacency(m)

    def is_blocked(end, other):
        return (end, other) in m.blocked

    def is_plain(u, w):
        return plain_edge(m, u, w)

    for u, v in m.skeleton:
        for a, b in ((u, v), (v, u)):
            i, k = pos[a], pos[b]
            along_blocks = set_path_exists(nbrs, a, b, is_blocked, lambda w: is_blocked(w, b))
            assert _path_exists(adj, out, i, k, inn[k]) == along_blocks
            along_plain = set_path_exists(nbrs, a, b, is_plain, lambda w: is_plain(w, b))
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
        for x, y, c in combinations(sorted(m.nodes), 3):
            sides = [(x, y), (y, c), (x, c)]
            if all(is_adjacent(m, u, v) for u, v in sides):
                assert sum(plain_edge(m, u, v) for u, v in sides) != 2
        added = double_block_chordless_cycles(m).blocked - m.blocked
        assert added == _exact_double_blocks(m, orders[g.skeleton])
        double_blocked += bool(added)
        m = both_fixpoints(with_blocks(m, added), t, ("R2", "R3", "R4"), new=added)
        assert m.blocked == essential_graph(g).marks.blocked
        assert _s3(m) == _exact_s3(m, orders[g.skeleton])
        for x, y in edges_blocked_at_one_end(m):
            both_fixpoints(with_blocks(m, [(y, x)]), t, ("R2", "R3"), new={(y, x)})
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
