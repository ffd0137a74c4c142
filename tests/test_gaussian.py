import random

import numpy as np
import pytest

from ampcg import (
    Covariance,
    Dataset,
    adjusted_effect,
    adjusting_set,
    bound_effect,
    essential_graph,
    linear_gaussian_model,
    node_names,
    population_covariance,
    random_chain_graph,
    random_model,
    sample,
    strong_labeling,
    true_effect,
    validate_chain_graph,
)
from ampcg.errors import ModelError, SingularRegressionError, UnknownNodeError
from ampcg.graphs import family

from .support import cg


def chain_model(coef=0.5):
    g = cg("ABC", [("A", "B"), ("B", "C")])
    blocks = {frozenset(n): np.eye(1) for n in "ABC"}
    return linear_gaussian_model(g, {("A", "B"): coef, ("B", "C"): coef}, blocks)


class TestModelValidation:
    def test_coefficient_keys_must_match_edges(self):
        g = cg("AB", [("A", "B")])
        with pytest.raises(ModelError):
            linear_gaussian_model(g, {}, {frozenset("A"): np.eye(1), frozenset("B"): np.eye(1)})

    def test_noise_must_be_positive_definite(self):
        g = cg("AB", [], [("A", "B")])
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ModelError):
            linear_gaussian_model(g, {}, {frozenset("AB"): bad})

    def test_precision_sparsity_must_match_missing_edges(self):
        g = cg("ABC", [], [("A", "B"), ("B", "C")])  # A,C not adjacent
        dense = np.linalg.inv(np.array([[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]]))
        with pytest.raises(ModelError):
            linear_gaussian_model(g, {}, {frozenset("ABC"): dense})

    def test_random_model_is_deterministic_and_correlated(self):
        g = cg("ABC", [("A", "B")], [("B", "C")])
        m1 = random_model(g, seed=5)
        m2 = random_model(g, seed=5)
        assert m1.coefficients == m2.coefficients
        block = m1.noise[frozenset("BC")]
        assert np.array_equal(block, m2.noise[frozenset("BC")])
        assert abs(block[0, 1]) > 0

    def test_no_edges_means_diagonal_noise(self):
        g = cg("AB")
        m = random_model(g, seed=1)
        assert not m.coefficients
        for block in m.noise.values():
            assert block.shape == (1, 1)


def _ab_model(block, directed=()):
    """A model on A and B: one arrow or one undirected edge, with one noise
    block over both nodes."""
    g = cg("AB", directed, [] if directed else [("A", "B")])
    return linear_gaussian_model(g, {e: 0.5 for e in directed}, {frozenset("AB"): block})


@pytest.mark.parametrize(
    "refuse, error, message",
    [
        (lambda: _ab_model(np.eye(2), directed=[("A", "B")]),
         ModelError, "noise must be keyed exactly by the chain components"),
        (lambda: _ab_model(np.eye(3)),
         ModelError, "noise block for ['A', 'B'] has shape (3, 3)"),
        (lambda: _ab_model(np.array([[2.0, 0.5], [0.1, 2.0]])),
         ModelError, "noise block for ['A', 'B'] is not symmetric"),
        (lambda: _ab_model(np.eye(2)),
         ModelError, "precision vanishes on the edge A--B"),
        (lambda: Covariance(("A", "B"), np.eye(2)).index("Z"),
         UnknownNodeError, "unknown node 'Z'"),
        (lambda: sample(chain_model(), n=0, seed=0),
         ValueError, "need at least one observation"),
        (lambda: true_effect(chain_model(), "A", "Z"),
         UnknownNodeError, "unknown node in ('A', 'Z')"),
        (lambda: true_effect(chain_model(), "B", "B"),
         ValueError, "source and outcome must differ"),
        (lambda: adjusted_effect(population_covariance(chain_model()), "A", "C", {"A"}),
         ValueError, "the treatment cannot appear in the adjusting set"),
        (lambda: bound_effect(
            population_covariance(chain_model()), essential_graph(chain_model().graph),
            "B", "B", "class"),
         ValueError, "treatment and outcome must differ"),
    ],
    ids=[
        "noise-keys", "block-shape", "asymmetric-block", "vanishing-precision",
        "unknown-column", "no-rows", "unknown-node", "same-source-and-outcome",
        "treatment-in-z", "bound-same-treatment-and-outcome",
    ],
)
def test_input_checks_name_the_fault(refuse, error, message):
    with pytest.raises(error) as caught:
        refuse()
    assert type(caught.value) is error
    assert str(caught.value) == message


class TestPopulationCovariance:
    def test_chain_values(self):
        cov = population_covariance(chain_model())
        i = {n: k for k, n in enumerate(cov.columns)}
        assert cov.matrix[i["A"], i["A"]] == pytest.approx(1.0)
        assert cov.matrix[i["B"], i["B"]] == pytest.approx(1.25)
        assert cov.matrix[i["C"], i["C"]] == pytest.approx(1.3125)
        assert cov.matrix[i["A"], i["C"]] == pytest.approx(0.25)

    def test_no_edges_returns_noise(self):
        g = cg("AB")
        m = random_model(g, seed=3)
        cov = population_covariance(m)
        assert cov.matrix[0, 1] == pytest.approx(0.0)

    def test_relabeling_invariance(self):
        g1 = cg("AB", [("A", "B")])
        g2 = validate_chain_graph(["B", "A"], [("A", "B")])
        blocks = {frozenset("A"): np.eye(1), frozenset("B"): np.eye(1)}
        m1 = linear_gaussian_model(g1, {("A", "B"): 0.7}, blocks)
        m2 = linear_gaussian_model(g2, {("A", "B"): 0.7}, blocks)
        assert np.allclose(population_covariance(m1).matrix, population_covariance(m2).matrix)


class TestSampling:
    def test_shape_and_determinism(self):
        m = chain_model()
        ds1 = sample(m, 7, seed=11)
        ds2 = sample(m, 7, seed=11)
        assert ds1.rows.shape == (7, 3)
        assert np.array_equal(ds1.rows, ds2.rows)

    def test_sample_covariance_approaches_population(self):
        m = chain_model()
        cov = population_covariance(m)
        i = {n: k for k, n in enumerate(cov.columns)}
        ds = sample(m, 200_000, seed=7)
        sc = ds.covariance()
        assert abs(sc.matrix[i["A"], i["C"]] - 0.25) < 0.02

    def test_errors_shrink_with_n(self):
        m = chain_model()
        pop = population_covariance(m).matrix
        errs = []
        for n in (10**3, 10**4, 10**5):
            sc = sample(m, n, seed=13).covariance()
            errs.append(np.abs(sc.matrix - pop).max())
        assert errs[2] < errs[0]

    def test_a_covariance_needs_two_rows(self):
        m = chain_model()
        for n in (0, 1):
            ds = Dataset(columns=("A", "B", "C"), rows=np.ones((n, 3)))
            with pytest.raises(ModelError, match=f"at least two rows, got {n}"):
                ds.covariance()
            with pytest.raises(ModelError, match=f"at least two rows, got {n}"):
                bound_effect(ds, strong_labeling(m.graph), "A", "C", "maxoriented")
        two = sample(m, 2, seed=3).covariance()
        assert two.matrix.shape == (3, 3)

    def test_covariance_divides_by_n_minus_one(self):
        # regression slopes do not see the divisor, so it is pinned here
        rows = sample(chain_model(), 12, seed=5).rows
        matrix = Dataset(columns=("A", "B", "C"), rows=rows).covariance().matrix
        assert np.allclose(matrix, np.cov(rows, rowvar=False), rtol=1e-12, atol=0)
        assert not np.allclose(matrix, np.cov(rows, rowvar=False, bias=True), rtol=1e-3)


class TestEffects:
    def test_true_effect_chain(self):
        m = chain_model()
        assert true_effect(m, "A", "C") == pytest.approx(0.25)
        assert true_effect(m, "C", "A") == 0.0

    def test_undirected_edge_is_not_causal(self):
        g = cg("AB", [], [("A", "B")])
        m = random_model(g, seed=2)
        assert true_effect(m, "A", "B") == 0.0

    def test_adjusted_effect_population(self):
        m = chain_model()
        cov = population_covariance(m)
        assert adjusted_effect(cov, "A", "C", []) == pytest.approx(0.25)
        assert adjusted_effect(cov, "A", "C", ["B"]) == pytest.approx(0.0, abs=1e-12)
        assert adjusted_effect(cov, "A", "C", ["C"]) == 0.0  # outcome inside Z

    def test_adjusted_effect_refuses_the_treatment_as_outcome(self):
        # regressing x on itself would give 1.0; true_effect and bound_effect refuse
        g = cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
        cov = population_covariance(random_model(g, 1))
        for zs in ([], ["D"]):
            with pytest.raises(ValueError, match="treatment and outcome must differ"):
                adjusted_effect(cov, "C", "C", zs)

    def test_singular_regression_reports_columns(self):
        from ampcg.gaussian import Covariance

        bad = Covariance(
            columns=("X", "Z", "Y"),
            matrix=np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]]),
        )
        with pytest.raises(SingularRegressionError) as exc:
            adjusted_effect(bad, "X", "Y", ["Z"])
        assert exc.value.columns == ["Z"]

    def test_identifiability_on_random_models(self):
        rnd = random.Random(41)
        for trial in range(120):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 8)))
            m = random_model(g, seed=trial)
            cov = population_covariance(m)
            for x in g.sorted_nodes:
                z = adjusting_set(g, x)
                de = family(g, {x}, "de")
                for y in sorted(g.nodes - {x} - z):
                    want = true_effect(m, x, y) if y in de else 0.0
                    assert adjusted_effect(cov, x, y, z) == pytest.approx(want, abs=1e-9)


class TestBoundEffect:
    def test_single_undirected_edge_bounds(self):
        g = cg("AB", [("A", "B")])
        blocks = {frozenset("A"): np.eye(1), frozenset("B"): np.eye(1)}
        m = linear_gaussian_model(g, {("A", "B"): 0.8}, blocks)
        cov = population_covariance(m)
        eg = cg("AB", [], [("A", "B")])
        lab = strong_labeling(eg)
        report = bound_effect(cov, lab, "A", "B", "maxoriented")
        values = sorted(v for _, v in report.entries)
        assert values == [pytest.approx(0.0, abs=1e-12), pytest.approx(0.8)]
        assert report.lower <= 0.8 <= report.upper + 1e-12

    def test_class_mode_lists_distinct_sets(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        m = random_model(g, seed=9)
        cov = population_covariance(m)
        lab = strong_labeling(g)
        report = bound_effect(cov, lab, "B", "C", "class")
        assert [sorted(aset.nodes) for aset, _ in report.entries] == [["A", "C"]]

    def test_equal_calls_give_equal_reports(self):
        g = cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        cov = population_covariance(random_model(g, seed=4))
        lab = strong_labeling(g)
        assert bound_effect(cov, lab, "C", "D", "class") == bound_effect(
            cov, lab, "C", "D", "class"
        )

    def test_class_mode_covers_the_generating_member(self):
        rnd = random.Random(51)
        for trial in range(60):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 5)),
                                   p_undirected=0.3, p_directed=0.3)
            m = random_model(g, seed=300 + trial)
            cov = population_covariance(m)
            lab = strong_labeling(g)
            nodes = g.sorted_nodes
            x = rnd.choice(nodes)
            y = rnd.choice([n for n in nodes if n != x])
            truth = true_effect(m, x, y)
            report = bound_effect(cov, lab, x, y, "class")
            assert report.lower - 1e-9 <= truth <= report.upper + 1e-9

    def test_superset_envelope_holds_the_class_bounds_and_the_truth(self):
        rnd = random.Random(61)
        for trial in range(40):
            g = random_chain_graph(rnd, node_names(rnd.randint(3, 6)),
                                   p_undirected=0.3, p_directed=0.3)
            m = random_model(g, seed=500 + trial)
            cov = population_covariance(m)
            lab = strong_labeling(g)
            x, y = rnd.sample(g.sorted_nodes, 2)
            truth = true_effect(m, x, y)
            whole = bound_effect(cov, lab, x, y, "class")
            envelope = bound_effect(cov, lab, x, y, "superset")
            assert envelope.lower <= whole.lower <= truth + 1e-9
            assert truth - 1e-9 <= whole.upper <= envelope.upper

    def test_superset_covers_a_member_the_maxoriented_bound_misses(self):
        # the generating graph is a class member but not maximally oriented
        g = validate_chain_graph(
            node_names(6),
            (),
            [("V0", "V1"), ("V0", "V2"), ("V0", "V5"), ("V2", "V3"),
             ("V2", "V4"), ("V3", "V4"), ("V4", "V5")],
        )
        m = random_model(g, seed=0)
        cov = population_covariance(m)
        lab = strong_labeling(g)
        truth = true_effect(m, "V0", "V1")
        assert truth == 0.0
        narrow = bound_effect(cov, lab, "V0", "V1", "maxoriented")
        assert narrow.lower == narrow.upper == pytest.approx(-0.3126, abs=5e-5)
        for mode in ("class", "superset"):
            report = bound_effect(cov, lab, "V0", "V1", mode)
            assert report.lower <= truth <= report.upper
