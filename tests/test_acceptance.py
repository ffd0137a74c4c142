"""Acceptance suite: oracle- and property-based exit criteria.

Each test exercises one criterion at full corpus size and prints a single
PASS line on success (run with `pytest tests/test_acceptance.py -s` to see
them); a failed assertion is the corresponding FAIL.
"""

from __future__ import annotations

import random

import pytest

from ampcg import (
    accelerator_labels,
    adjusting_set,
    bound_effect,
    equivalent,
    essential_from_class,
    essential_graph,
    label_strong,
    merge,
    node_names,
    population_covariance,
    random_chain_graph,
    random_model,
    st_nst,
    strong_oracle,
    true_effect,
)
from ampcg.causal import enumerate_adjusting_sets
from ampcg.gaussian import adjusted_effect, linear_gaussian_model
from ampcg.graphs import family
from ampcg.oracle import (
    _split_candidates,
    class_by_merge_split,
    maximally_oriented_members,
    minimally_oriented,
)
from ampcg.transform import _split_result, feasible_merges, maximally_oriented

from .support import (
    cg,
    greedy_maximally_oriented,
    s4_s6_closure as _propagate,
    same_separations,
)


def _report(line: str) -> None:
    print(line, flush=True)


#: the two-step disjunction: D->E is strong, but only the re-blocking check sees it
DISJUNCTIVE = cg("ABCDE", [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")])


def _labeling(g, **kwargs):
    result = essential_graph(g)
    return label_strong(result, **kwargs)


def test_criterion_1_essential_graph_matches_class_oracle(corpus4, classes4, run56):
    for g in corpus4:
        assert essential_graph(g).graph == essential_from_class(classes4[g]), g
    for record in run56.records:
        assert record.result.graph == essential_from_class(record.cls), record.graph
    _report(
        "ACCEPTANCE 1 essential-graph oracle equality "
        f"({len(corpus4)} exhaustive + {len(run56.records)} random): PASS"
    )


def test_criterion_2_strong_labels_match_class_oracle(corpus4, classes4, run7, run56):
    checked = 0
    for g in corpus4:
        result = essential_graph(g)
        labeling = label_strong(result, check_invariants=True)
        summary = strong_oracle(classes4[g])
        assert labeling.strong_directed == summary.directed, g
        assert labeling.strong_undirected == summary.undirected, g
        checked += 1
    for run in (run56, run7):
        for record in run.records:
            summary = strong_oracle(record.cls)
            assert record.labeling.strong_directed == summary.directed, record.graph
            assert record.labeling.strong_undirected == summary.undirected, record.graph
            checked += 1

    # named instances
    lab = _labeling(cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")]))
    assert not lab.strong_directed and not lab.strong_undirected
    lab = _labeling(cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")]))
    assert lab.strong_directed == {("C", "D")} and not lab.strong_undirected
    lab = _labeling(DISJUNCTIVE)
    assert ("D", "E") in lab.strong_directed
    _report(f"ACCEPTANCE 2 strong-edge oracle equality ({checked} graphs): PASS")


def test_criterion_3_accelerator_sound_and_incomplete(corpus4, run56, run7):
    for g in corpus4:
        result = essential_graph(g)
        labeling = label_strong(result, check_invariants=True)
        assert accelerator_labels(result.marks) <= labeling.strong_directed, g
    for run in (run56, run7):
        for record in run.records:
            marks = record.result.marks
            strong = record.labeling.strong_directed
            assert accelerator_labels(marks) <= strong, record.graph
            assert _propagate(marks, set(strong)) <= strong, record.graph
    result = essential_graph(DISJUNCTIVE)
    rules_only = accelerator_labels(result.marks)
    full = _labeling(DISJUNCTIVE, check_invariants=True).strong_directed
    assert rules_only < full, (sorted(rules_only), sorted(full))
    assert ("D", "E") in full - rules_only
    _report("ACCEPTANCE 3 rule-shortcut soundness, strict gap on the disjunctive instance: PASS")


def test_criterion_4_equivalence_iff_separation_agreement(corpus4):
    rnd = random.Random(1105)
    by_skeleton: dict = {}
    for g in corpus4:
        by_skeleton.setdefault(g.skeleton, []).append(g)
    eligible = [members for members in by_skeleton.values() if len(members) > 1]
    pairs = [tuple(rnd.sample(rnd.choice(eligible), 2)) for _ in range(200)]
    for g, h in pairs:
        assert equivalent(g, h) == same_separations(g, h), (g, h)
    _report("ACCEPTANCE 4 equivalence iff separation agreement (200 pairs): PASS")


def test_criterion_5_transformation_coherence(corpus4, classes4, run56, run7):
    # merge/split preservation + closure equality on the random corpora
    for run in (run56, run7):
        for record in run.records:
            g = record.graph
            assert class_by_merge_split(g).members == record.cls.members, g
            for upper, lower in feasible_merges(g):
                assert equivalent(g, merge(g, upper, lower)), g
            for comp, upper in _split_candidates(g):
                result = _split_result(g, comp, upper)
                if result is not None:
                    assert equivalent(g, result), g
    # per-class checks on the exhaustive corpus
    classes = {id(c): c for c in classes4.values()}
    for cls in classes.values():
        rep = next(iter(cls.members))
        assert class_by_merge_split(rep).members == cls.members, rep
        mins = minimally_oriented(rep)
        arrow_minimal = {
            m for m in cls.members
            if not any(o.directed < m.directed for o in cls.members)
        }
        assert mins == arrow_minimal, rep
        maxes = maximally_oriented_members(rep)
        assert maximally_oriented(rep) in maxes, rep
        undirected_sets = {m.undirected for m in maxes}
        undirected_sets.add(greedy_maximally_oriented(rep).undirected)
        undirected_sets.add(greedy_maximally_oriented(rep, reverse_order=True).undirected)
        assert len(undirected_sets) == 1, rep
    _report(
        f"ACCEPTANCE 5 transformation coherence ({len(classes)} classes "
        f"+ {len(run56.records) + len(run7.records)} random graphs): PASS"
    )


def test_criterion_6_locally_valid_adjusting_sets(corpus4, classes4, run56):
    checked = 0
    egs = {}
    for cls in {id(c): c for c in classes4.values()}.values():
        eg = essential_from_class(cls)
        egs[eg] = None
    random_egs = {record.result.graph for record in run56.records}
    assert len(random_egs) >= 200, "corpus yields too few distinct essential graphs"
    for eg in sorted(random_egs, key=repr)[:220]:
        egs.setdefault(eg)
    for eg in egs:
        labeling = _labeling(eg)
        maxes = maximally_oriented_members(eg)
        for x in eg.sorted_nodes:
            part = st_nst(labeling, x)  # raises on a mixed partition
            assert not (part.st and part.nst)
            got = {a.nodes for a in enumerate_adjusting_sets(labeling, x, "maxoriented")}
            want = {adjusting_set(m, x) for m in maxes}
            assert got == want, (eg, x)
            checked += 1
    _report(f"ACCEPTANCE 6 locally-valid adjusting sets ({checked} (graph, node) cases): PASS")


def test_criterion_7_numerical_identifiability():
    import numpy as np

    # the hand-computed chain reproduces 0.25 exactly
    chain = cg("ABC", [("A", "B"), ("B", "C")])
    blocks = {frozenset(n): np.eye(1) for n in "ABC"}
    model = linear_gaussian_model(chain, {("A", "B"): 0.5, ("B", "C"): 0.5}, blocks)
    cov = population_covariance(model)
    assert adjusted_effect(cov, "A", "C", []) == pytest.approx(0.25, abs=1e-12)
    assert true_effect(model, "A", "C") == pytest.approx(0.25, abs=1e-12)

    rnd = random.Random(2203)
    models = 0
    while models < 200:
        g = random_chain_graph(rnd, node_names(rnd.randint(3, 8)))
        model = random_model(g, seed=10_000 + models)
        cov = population_covariance(model)
        for x in g.sorted_nodes:
            z = adjusting_set(g, x)
            de = family(g, {x}, "de")
            for y in sorted(g.nodes - {x} - z):
                expected = true_effect(model, x, y) if y in de else 0.0
                assert adjusted_effect(cov, x, y, z) == pytest.approx(expected, abs=1e-9)
        models += 1

    # class-mode bounds cover the generating member's effect
    covered = 0
    while covered < 60:
        g = random_chain_graph(rnd, node_names(rnd.randint(3, 5)),
                               p_undirected=0.3, p_directed=0.3)
        model = random_model(g, seed=20_000 + covered)
        cov = population_covariance(model)
        labeling = _labeling(essential_graph(g).graph)
        nodes = g.sorted_nodes
        x = rnd.choice(nodes)
        y = rnd.choice([n for n in nodes if n != x])
        truth = true_effect(model, x, y)
        report = bound_effect(cov, labeling, x, y, "class")
        assert report.lower - 1e-9 <= truth <= report.upper + 1e-9, (g, x, y)
        covered += 1
    _report("ACCEPTANCE 7 numerical identifiability (200 models + 60 coverage runs): PASS")


def test_criterion_8_orientation_invariants_never_fire(run56, run7, corpus4):
    violations = list(run56.invariant_violations) + list(run7.invariant_violations)
    for g in corpus4:
        result = essential_graph(g)
        label_strong(result, check_invariants=True)
    assert violations == [], violations
    _report(
        "ACCEPTANCE 8 re-blocking invariants "
        f"(0 violations across {len(run56.records) + len(run7.records) + len(corpus4)} graphs): PASS"
    )
