import hashlib
import json
import random
import re
import time

import pytest
from hypothesis import given, settings

from ampcg import (
    accelerator_labels,
    enumerate_class,
    equivalent,
    essential_graph,
    label_strong,
    maximally_oriented,
    node_names,
    pair,
    random_chain_graph,
    serialize_graph,
    strong_labeling,
    strong_oracle,
    to_json,
    validate_chain_graph,
)
from ampcg import equivalence, essential, graphs, strong
from ampcg.cli import cli
from ampcg.errors import InvalidStateError, InvariantViolationError
from ampcg.essential import EssentialGraphResult, _close_blocks
from ampcg.strong import _pretriplexes_by_end

from .support import (
    cg,
    edges_blocked_at_one_end,
    is_adjacent,
    marked_graphs,
    s4_s6_closure,
    undirected_grid,
    unmarked_skeleton,
    with_blocks,
)


def _pipeline(g):
    result = essential_graph(g)
    return result, label_strong(result, check_invariants=True)


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
        unsettled = with_blocks(unmarked_skeleton(g), [("A", "C"), ("B", "C")])
        with pytest.raises(InvalidStateError):
            label_strong(EssentialGraphResult(unsettled, result._tri), check_invariants=True)

    def test_only_checked_mode_recloses_the_marks(self, monkeypatch):
        # essential_graph's marks are closed by construction, so a labeling
        # runs the fixpoint check only under check_invariants, with the same
        # labels either way
        checks = 0
        check = strong._check_line6_fixpoint

        def counted(*args):
            nonlocal checks
            checks += 1
            return check(*args)

        monkeypatch.setattr(strong, "_check_line6_fixpoint", counted)
        rnd = random.Random(31)
        for _ in range(40):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 30)), 0.1, 0.15)
            result = essential_graph(g)
            checks = 0
            labels = label_strong(result)
            assert checks == 0
            assert strong_labeling(g) == labels and checks == 0
            assert label_strong(result, check_invariants=True) == labels and checks == 1

    def test_shortcut_labels_match_checked_labels(self):
        rnd = random.Random(23)
        for _ in range(120):
            g = random_chain_graph(rnd, node_names(rnd.randint(2, 6)))
            result = essential_graph(g)
            assert label_strong(result) == label_strong(result, check_invariants=True)

    def test_checked_mode_rejects_an_unconfirmed_shortcut_label(self, monkeypatch):
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        result = essential_graph(g)
        monkeypatch.setattr("ampcg.strong._s3", lambda m: {("A", "B")})
        with pytest.raises(InvariantViolationError, match="shortcut labels"):
            label_strong(result, check_invariants=True)

    @staticmethod
    def _reblock_also(monkeypatch, marks, end, other):
        # every re-blocked copy also blocks (end, other)
        i, w = marks.index.pos[end], marks.index.pos[other]

        def reblock(adj, tri, out, inn, pending, r4):
            yield from _close_blocks(adj, tri, out, inn, pending, r4)
            if not r4 and not out[i] >> w & 1:
                out[i] |= 1 << w
                inn[w] |= 1 << i
                yield [(i, w)]

        monkeypatch.setattr("ampcg.strong._close_blocks", reblock)

    def test_checked_mode_reports_a_semidirected_cycle(self, monkeypatch):
        g = cg("ABCD", [("D", "A")], [("A", "B"), ("A", "C"), ("B", "C")])
        result = essential_graph(g)
        # every re-blocked copy also blocks (B, C): the copy that forces B -- A
        # then finalizes to B -> C -> A -- B, a semidirected cycle
        self._reblock_also(monkeypatch, result.marks, "B", "C")
        with pytest.raises(InvariantViolationError, match="semidirected cycle"):
            label_strong(result, check_invariants=True)

    def test_checked_mode_reports_a_block_on_a_plain_triangle(self, monkeypatch):
        # the collider gives singly blocked edges to re-block; E--F--G--E
        # stays plain until each copy blocks (E, F)
        g = cg("ABCEFG", [("A", "C"), ("B", "C")], [("E", "F"), ("E", "G"), ("F", "G")])
        result = essential_graph(g)
        self._reblock_also(monkeypatch, result.marks, "E", "F")
        message = "blocked edge E~F on an otherwise plain triangle with G"
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            label_strong(result, check_invariants=True)

    def test_checked_mode_reports_a_new_triplex(self, monkeypatch):
        # each copy blocks (E, F) of the plain path E--F--G, which finalizes
        # to E -> F -- G, a triplex the essential graph lacks
        g = cg("ABCEFG", [("A", "C"), ("B", "C")], [("E", "F"), ("F", "G")])
        result = essential_graph(g)
        self._reblock_also(monkeypatch, result.marks, "E", "F")
        message = "finalization created triplexes [('F', ('E', 'G'))]"
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            label_strong(result, check_invariants=True)

    def test_a_copy_stops_at_its_first_destroyed_pretriplex(self, monkeypatch):
        # V3 -> V8 is the one strong arrow S1-S3 miss.  The copy that forces
        # V3 -- V8 destroys a pretriplex with the 2 blocks of its first round,
        # and its full closure draws 1 and 2 more; the copies of the other
        # arrows S3 misses add no block
        g = cg(
            node_names(9),
            [("V1", "V8"), ("V2", "V8"), ("V3", "V8"), ("V5", "V8"), ("V7", "V8")],
            [("V0", "V1"), ("V0", "V5"), ("V1", "V3"), ("V1", "V7"), ("V2", "V7"),
             ("V3", "V5"), ("V4", "V6"), ("V4", "V7"), ("V5", "V6")],
        )
        result = essential_graph(g)
        assert ("V3", "V8") not in accelerator_labels(result.marks)
        added = 0
        block = essential._block

        def counted(out, inn, found):
            nonlocal added
            new = block(out, inn, found)
            added += len(new)
            return new

        monkeypatch.setattr(essential, "_block", counted)
        lab = label_strong(result)
        assert lab.strong_directed == {("V1", "V8"), ("V3", "V8"), ("V5", "V8"), ("V7", "V8")}
        assert added == 2
        # checked, the copy closes fully (2 + 1 + 2), and the copies of S3's
        # three arrows add 15 blocks
        added = 0
        assert label_strong(result, check_invariants=True) == lab
        assert added == 5 + 15

    def test_labels_a_120_node_graph_in_seconds(self):
        # enumerating every chordless cycle R3 might use takes minutes here
        rnd = random.Random(120)
        random_chain_graph(rnd, node_names(120), 0.01, 0.017)
        g = random_chain_graph(rnd, node_names(120), 0.01, 0.017)
        result = essential_graph(g)
        start = time.perf_counter()
        lab = label_strong(result)
        assert time.perf_counter() - start < 5.0
        assert lab == label_strong(result, check_invariants=True)

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
            lab = label_strong(result)
        assert calls <= 10_000
        assert lab == label_strong(result, check_invariants=True)

    def test_one_labeling_builds_the_adjacency_once(self, monkeypatch):
        # the graph's constructor builds its index; every fixpoint shares it,
        # the re-blocked copies read it without becoming marked graphs, and
        # finalizing builds the essential graph's index in the same pass as
        # its edges
        builds = 0
        build = graphs._graph_index

        def counted(*args):
            nonlocal builds
            builds += 1
            return build(*args)

        monkeypatch.setattr(graphs, "_graph_index", counted)
        g = random_chain_graph(random.Random(30), node_names(30), 0.04, 0.07)
        strong_labeling(g)
        assert builds == 1
        marks = essential_graph(g).marks
        assert marks.index is g.index
        assert len(edges_blocked_at_one_end(marks)) >= 10

    def test_one_labeling_builds_the_triplex_masks_once(self, monkeypatch, tmp_path):
        # essential_graph reads the masks off the graph's index once; both of
        # its fixpoints and the labeling share that build, through the library
        # and through `ampcg strong`
        builds = 0
        build = equivalence._triplex_masks

        def counted(*args):
            nonlocal builds
            builds += 1
            return build(*args)

        monkeypatch.setattr(essential, "_triplex_masks", counted)
        g = random_chain_graph(random.Random(30), node_names(30), 0.04, 0.07)
        strong_labeling(g)
        assert builds == 1
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        assert cli(["strong", str(path)]) == 0
        assert builds == 2

    def test_one_labeling_validates_its_marks_once(self, monkeypatch):
        # essential_graph finalizes the marks, and label_strong reads that
        # graph: one acyclicity check, made by the ChainGraph constructor
        g = random_chain_graph(random.Random(30), node_names(30), 0.04, 0.07)
        calls = 0
        order = graphs._component_order

        def counted(*args):
            nonlocal calls
            calls += 1
            return order(*args)

        monkeypatch.setattr(graphs, "_component_order", counted)
        strong_labeling(g)
        assert calls == 1
        # a copy with more blocks finalizes on its own
        m = essential_graph(g).marks
        x, y = edges_blocked_at_one_end(m)[0]
        h = with_blocks(m, [(y, x)])
        assert m.finalize() is m.finalize()
        assert h.finalize().has_undirected(x, y) and m.finalize().has_directed(x, y)

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
        propagated = s4_s6_closure(result.marks, {("C", "D")})
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
            assert s4_s6_closure(result.marks, set(lab.strong_directed)) <= lab.strong_directed


@settings(max_examples=200, deadline=None)
@given(marked_graphs())
def test_pretriplexes_match_the_name_level_reading(m):
    # the keys a re-blocked copy reads: (b, a) with the edge blocked at a only
    pre, pos = _pretriplexes_by_end(m), m.index.pos
    for a, b in edges_blocked_at_one_end(m):
        cs = {c for c in m.nodes if c != a and not is_adjacent(m, a, c) and (c, b) in m.blocked}
        assert m.index.names_of(pre[pos[b]].get(pos[a], 0)) == cs


def test_strong_labeling_convenience_matches_pipeline():
    g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
    result, lab = _pipeline(g)
    assert strong_labeling(g) == lab


def _renamed_marks_json(text, rename):
    """The marks document `text` with every node renamed, re-sorted as
    `to_json` sorts it."""
    doc = json.loads(text)
    edges = []
    for e in doc["edges"]:
        u, v, bu, bv = rename[e["u"]], rename[e["v"]], e["blocked_u"], e["blocked_v"]
        if u > v:
            u, v, bu, bv = v, u, bv, bu
        edges.append({"u": u, "v": v, "blocked_u": bu, "blocked_v": bv})
    edges.sort(key=lambda e: (e["u"], e["v"]))
    renamed = {"nodes": sorted(rename[n] for n in doc["nodes"]), "edges": edges}
    return json.dumps(renamed, indent=2, sort_keys=True) + "\n"


def test_renaming_the_nodes_renames_every_output():
    # a random permutation of the names moves every node to another bit
    # position, so this exercises the position-order code (i < w tests,
    # `>> (i + 1) << (i + 1)`, MCS tie-breaks) that no oracle checks above
    # 16 edges
    rnd = random.Random(41)
    draws = [(8, 0.15, 0.2)] * 300 + [(30, 0.04, 0.07)] * 60 + [(200, 0.006, 0.01)] * 3
    draws.append((500, 0.0024, 0.004))
    for n, p_u, p_d in draws:
        g = random_chain_graph(rnd, node_names(n), p_u, p_d)
        names = list(g.sorted_nodes)
        rename = dict(zip(names, rnd.sample(names, len(names))))
        h = validate_chain_graph(
            g.nodes,
            [(rename[u], rename[v]) for u, v in g.directed],
            [(rename[a], rename[b]) for a, b in g.undirected],
        )
        result_g, result_h = essential_graph(g), essential_graph(h)
        assert to_json(result_h.marks) == _renamed_marks_json(to_json(result_g.marks), rename)
        lab_g = label_strong(result_g)
        lab_h = label_strong(result_h)
        assert lab_h.strong_directed == {(rename[u], rename[v]) for u, v in lab_g.strong_directed}
        assert lab_h.strong_undirected == {
            pair(rename[a], rename[b]) for a, b in lab_g.strong_undirected
        }
        assert equivalent(maximally_oriented(h), h)


# sha256 of to_json(essential_graph(g).marks) and to_json(strong_labeling(g)),
# for three draws of random_chain_graph(random.Random(n), node_names(n), p_u,
# p_d) per n (one at 1000 nodes, 1803 edges), then the 10 x 10 undirected grid
SCALE_DIGESTS = {
    80: [
        ("585a36ae6b02c7eb84151161f685e74480a6194231ef92dfa093e4e2d1c1634d",
         "7516b38d58f0f41012f57f4d9353a36131294c3b5ec9937b3e17b9daa6beeca8"),
        ("059663ea7845bc63243f54737401ab5317a91ec9f8849d69814b1fd6deac5dcd",
         "07dc37bc588fbd46382e2960ce1ec17e177064bbec7a7b2b7a9f57bdb73385c1"),
        ("fcaf62d7e17820673c804fc863295ced88d0fe4ba1ec89cc40c43f40cb8774e5",
         "176a49440c706c84a88a14bc22728f5808aba2cf1c831f5fc80c4612ebe8fa5a"),
    ],
    120: [
        ("491d25f7cfb60c3409ef836672ce73c39e19db8d9701542893d6ef153ea988f1",
         "9c7662cc310533969e85098a78332aa90455f0b6c48fa3e4523b4524f1979d53"),
        ("7e277086201cf9a082e2477af28375bbaf15b895fefb85fc4414b687c1720bd0",
         "1669992509df5271d818235e23d50011696bfb0acb1c3b71dbbcc629384e48e6"),
        ("61d9f5d1048aaee33156072a66d53624ecf1065b04888fe88405073fa869b816",
         "648a9cb13841a040b3186d28f9fdd257f788fd3c257e9253279fb1df8b359514"),
    ],
    200: [
        ("b2c55063330be070cff0278d1189250dc6f16d9bc1691fa2a892dc34095cf332",
         "dfc0a90cad54387a6e88cc31c35b6215595940835b2c1b571a0be0c39e7ed1ac"),
        ("bf4d858b94bae7c2ffa524fe07c78fba55e4cf5372de1166569b10cd888fbf94",
         "c6fd7b89dd765e9183de34fc4c739dc0ae1db108fbb71531bebb3fc784eff064"),
        ("17104adf8828ee4c489e62c839412aef78240131c5c409c156e6f20f055c5428",
         "10ff034f11dddac3489116e728c6804e78462d67783b4950a37ed4fac8eeaf7c"),
    ],
    1000: [
        ("e3a973a847fea55a4c69cb5a0aa95219ed9dfbcd41e232b958d3c98426c3554c",
         "443b24ee01b3dfa80e0a3f60b9a4e44d96ea5c0e2ceb7e8e548efc2ebbb45e1b"),
    ],
}
GRID_DIGESTS = ("d7dea8e007fe830a63bf2dfefec65cc7e4470e66574bfa6934fa7b08baff3ba6",
                "ef0f565128bbcefb41a2d40e9d5659f7f5b3a0c5464b4195b52595431a54bf40")


def _digests(g):
    marks = to_json(essential_graph(g).marks).encode()
    labeling = to_json(strong_labeling(g)).encode()
    return hashlib.sha256(marks).hexdigest(), hashlib.sha256(labeling).hexdigest()


SCALES = ((80, 0.015, 0.025), (120, 0.01, 0.017), (200, 0.006, 0.01), (1000, 0.003, 0.005))


def test_outputs_at_scale_keep_their_digests():
    for n, p_u, p_d in SCALES:
        rnd = random.Random(n)
        for i, expected in enumerate(SCALE_DIGESTS[n]):
            assert _digests(random_chain_graph(rnd, node_names(n), p_u, p_d)) == expected, (n, i)
    assert _digests(undirected_grid(10)) == GRID_DIGESTS


# the first 12 hex of sha256(to_json(marks) + to_json(labeling)) for one draw
# of random_chain_graph(random.Random(n), node_names(n), p_u, p_d) each
LABELING_DRAWS = (
    (200, 0.006, 0.01, "7ec70fd1da65"),
    (500, 0.0024, 0.004, "fc22e77ea8ed"),
    (1000, 0.0012, 0.002, "32a834e6476d"),
    (1000, 0.003, 0.005, "9af5f1d2a2ef"),
    (2000, 0.0006, 0.001, "8a8cf9dd15fe"),
)


def test_labelings_at_200_to_2000_nodes_keep_their_digests():
    for n, p_u, p_d, expected in LABELING_DRAWS:
        result = essential_graph(random_chain_graph(random.Random(n), node_names(n), p_u, p_d))
        labeling = label_strong(result)
        text = (to_json(result.marks) + to_json(labeling)).encode()
        assert hashlib.sha256(text).hexdigest()[:12] == expected, n


def test_shortcut_rules_are_sound_at_200_and_500_nodes():
    # acceptance criterion 3 at scale: S1-S3 label strong arrows only, and
    # S4-S6 chain further strong arrows from those labels
    for n, p_u, p_d, _ in LABELING_DRAWS[:2]:
        result = essential_graph(random_chain_graph(random.Random(n), node_names(n), p_u, p_d))
        strong = label_strong(result).strong_directed
        rules = accelerator_labels(result.marks)
        chained = s4_s6_closure(result.marks, rules)
        assert rules < strong and chained, n
        assert chained <= strong, n


def test_early_stopped_labels_match_fully_closed_labels_at_30_to_60_nodes():
    rnd = random.Random(43)
    for _ in range(80):
        n = rnd.randint(30, 60)
        g = random_chain_graph(rnd, node_names(n), rnd.uniform(1, 3) / n, rnd.uniform(1.5, 4) / n)
        result = essential_graph(g)
        assert label_strong(result) == label_strong(result, check_invariants=True)


# sha256 of serialize_graph(maximally_oriented(g)) for the draws of SCALES,
# then the 10 x 10 undirected grid
MAXIMALLY_ORIENTED_DIGESTS = {
    80: ["f4023ec0eb122455812dae631d7abdd005432def3e64452a7326182896154863",
         "3a68af65acb0e5b40a257fb078f8141017e8bef77cb665b7b33e73cc5bf10b84",
         "42e7bd4a4caf98af0a623f8185480cf7eb300eb348787422bd3f5bdb9976709e"],
    120: ["eeb9282ce95633e80b812c53e789b9fa53b6271c5b8c8b0b606e6255def6fd73",
          "cca9fb046e414e36c86f07f139a0f283d9a890cbbfea4af19ddbe1158f573e09",
          "7618db479ac5e76010495f7c4b18fae4521e17dc0e61e32f00f76f54b7e46188"],
    200: ["a0bccfbfb98a84a014dd40dbc930d61727cf014a0cc97f8ac9aa3622bff882d9",
          "328650255d6a03fa9f5752ff1b2144a0207a99e7077aa4f60cd512d3c243bb4d",
          "680ecf5e967025159f7a4998d8c9c3976dc0ba40e280a9dc638e854a67c201e5"],
    1000: ["5c0050bd7294d5b8949779d0af3d981f18e915c6e93ca74ad3e482a3fcd7b220"],
}
MAXIMALLY_ORIENTED_GRID_DIGEST = "274d12829a5ae83e055f5b7120950da79fccde54e7488860b77fa70d59dbd188"


def _member_digest(g):
    return hashlib.sha256(serialize_graph(maximally_oriented(g)).encode()).hexdigest()


def test_maximally_oriented_at_scale_keeps_its_digests():
    for n, p_u, p_d in SCALES:
        rnd = random.Random(n)
        for i, expected in enumerate(MAXIMALLY_ORIENTED_DIGESTS.get(n, ())):
            assert _member_digest(random_chain_graph(rnd, node_names(n), p_u, p_d)) == expected, (n, i)
    assert _member_digest(undirected_grid(10)) == MAXIMALLY_ORIENTED_GRID_DIGEST
