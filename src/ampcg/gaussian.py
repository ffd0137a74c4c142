"""Linear-Gaussian models over chain graphs: synthesis, covariance, effects.

Each node is a linear function of its parents plus Gaussian noise; noise
terms are independent across chain components and correlated within one
exactly along its undirected edges (the component's noise precision is zero
at missing edges).  Interventional effects then reduce to sums of directed
path products, and adjusted regression coefficients recover them from purely
observational covariances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .causal import AdjustingSet, Mode, enumerate_adjusting_sets
from .errors import (
    MAX_EDGES,
    ModelError,
    SingularRegressionError,
    SingularSystemError,
    UnknownNodeError,
)
from .essential import EssentialGraphResult
from .graphs import ChainGraph, NodeId, chain_components
from .strong import StrongLabeling

_PRECISION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """Structural coefficients per directed edge plus per-component noise blocks.

    `noise` maps each chain component to a positive-definite covariance block
    over the component's sorted nodes; its inverse vanishes exactly at the
    component's missing undirected edges.
    """

    graph: ChainGraph
    coefficients: Mapping[tuple[NodeId, NodeId], float]
    noise: Mapping[frozenset[NodeId], np.ndarray]


@dataclass(frozen=True, eq=False)
class Covariance:
    """A labeled covariance matrix."""

    columns: tuple[NodeId, ...]
    matrix: np.ndarray

    def index(self, node: NodeId) -> int:
        try:
            return self.columns.index(node)
        except ValueError:
            raise UnknownNodeError(f"unknown node {node!r}") from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations as rows over named columns."""

    columns: tuple[NodeId, ...]
    rows: np.ndarray

    def covariance(self) -> Covariance:
        """The sample covariance; ModelError below two rows."""
        n = self.rows.shape[0]
        if n < 2:
            raise ModelError(f"a sample covariance needs at least two rows, got {n}")
        centered = self.rows - self.rows.mean(axis=0, keepdims=True)
        matrix = centered.T @ centered / (n - 1)
        return Covariance(columns=self.columns, matrix=matrix)


@dataclass(frozen=True)
class EffectBoundReport:
    """Per-adjusting-set effect values with their envelope."""

    lower: float
    upper: float
    entries: tuple[tuple[AdjustingSet, float], ...]
    mode: str


def linear_gaussian_model(
    graph: ChainGraph,
    coefficients: Mapping[tuple[NodeId, NodeId], float],
    noise: Mapping[frozenset[NodeId], np.ndarray],
) -> LinearGaussianModel:
    """Validate and freeze a model.

    Checks that the coefficient map is keyed exactly by the directed edges,
    that each component has a symmetric positive-definite noise block of the
    right shape, and that each block's precision is zero exactly at the
    component's missing undirected edges.
    """
    if frozenset(coefficients) != graph.directed:
        raise ModelError("coefficients must be keyed exactly by the directed edges")
    comps = chain_components(graph).components
    if frozenset(noise) != frozenset(comps):
        raise ModelError("noise must be keyed exactly by the chain components")
    for comp in comps:
        names = sorted(comp)
        block = np.asarray(noise[comp], dtype=float)
        if block.shape != (len(names), len(names)):
            raise ModelError(f"noise block for {names} has shape {block.shape}")
        if not np.allclose(block, block.T):
            raise ModelError(f"noise block for {names} is not symmetric")
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise ModelError(f"noise block for {names} is not positive definite")
        precision = np.linalg.inv(block)
        scale = np.abs(precision).max()
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                if i >= j:
                    continue
                linked = graph.has_undirected(a, b)
                entry = abs(precision[i, j])
                if linked and entry <= _PRECISION_TOL * scale:
                    raise ModelError(f"precision vanishes on the edge {a}--{b}")
                if not linked and entry > _PRECISION_TOL * scale:
                    raise ModelError(f"precision is nonzero off the edge {a}--{b}")
    frozen_noise = {
        comp: np.asarray(noise[comp], dtype=float).copy() for comp in comps
    }
    return LinearGaussianModel(
        graph=graph, coefficients=dict(coefficients), noise=frozen_noise
    )


def random_model(graph: ChainGraph, seed: int) -> LinearGaussianModel:
    """A reproducible random model on the given graph.

    Edge coefficients get magnitudes in [0.3, 1.0) with random signs.  Each
    component's noise precision puts random weights on the undirected edges
    and a diagonally dominant diagonal, which guarantees positive
    definiteness.
    """
    rng = np.random.default_rng(seed)
    coefficients = {}
    for u, v in sorted(graph.directed):
        magnitude = rng.uniform(0.3, 1.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        coefficients[(u, v)] = sign * magnitude
    noise = {}
    for comp in chain_components(graph).components:
        names = sorted(comp)
        k = len(names)
        omega = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                if graph.has_undirected(names[i], names[j]):
                    weight = rng.uniform(0.2, 0.6) * (1.0 if rng.random() < 0.5 else -1.0)
                    omega[i, j] = omega[j, i] = weight
        for i in range(k):
            omega[i, i] = 1.0 + np.abs(omega[i]).sum()
        noise[comp] = np.linalg.inv(omega)
    return linear_gaussian_model(graph, coefficients, noise)


def _coefficient_matrix(model: LinearGaussianModel) -> tuple[tuple[NodeId, ...], np.ndarray]:
    names, index = model.graph.sorted_nodes, model.graph.index.pos
    b = np.zeros((len(names), len(names)))
    for (u, v), c in model.coefficients.items():
        b[index[u], index[v]] = c
    return names, b


def _noise_matrix(model: LinearGaussianModel) -> np.ndarray:
    names, index = model.graph.sorted_nodes, model.graph.index.pos
    sigma = np.zeros((len(names), len(names)))
    for comp, block in model.noise.items():
        comp_names = sorted(comp)
        idx = [index[n] for n in comp_names]
        sigma[np.ix_(idx, idx)] = block
    return sigma


def population_covariance(model: LinearGaussianModel) -> Covariance:
    """Exact covariance of the structural system x = B^T x + eps."""
    names, b = _coefficient_matrix(model)
    sigma_eps = _noise_matrix(model)
    eye = np.eye(len(names))
    try:
        inv = np.linalg.inv(eye - b.T)
    except np.linalg.LinAlgError as exc:  # impossible for acyclic structure
        raise SingularSystemError(str(exc)) from exc
    matrix = inv @ sigma_eps @ inv.T
    return Covariance(columns=names, matrix=(matrix + matrix.T) / 2.0)


def sample(model: LinearGaussianModel, n: int, seed: int) -> Dataset:
    """n independent draws via the structural recursion in component order."""
    if n < 1:
        raise ValueError("need at least one observation")
    rng = np.random.default_rng(seed)
    index = model.graph.index
    names, pos = index.nodes, index.pos
    values = np.zeros((n, len(names)))
    for comp in chain_components(model.graph).components:
        comp_names = sorted(comp)
        block = model.noise[comp]
        chol = np.linalg.cholesky(block)
        eps = rng.standard_normal((n, len(comp_names))) @ chol.T
        for j, node in enumerate(comp_names):
            total = eps[:, j]
            for parent in sorted(index.names_of(index.pa[pos[node]])):
                total = total + model.coefficients[(parent, node)] * values[:, pos[parent]]
            values[:, pos[node]] = total
    return Dataset(columns=names, rows=values)


def true_effect(model: LinearGaussianModel, x: NodeId, y: NodeId) -> float:
    """Sum over directed paths x -> ... -> y of the coefficient products."""
    g = model.graph
    if x not in g.nodes or y not in g.nodes:
        raise UnknownNodeError(f"unknown node in ({x!r}, {y!r})")
    if x == y:
        raise ValueError("source and outcome must differ")
    order = [n for comp in chain_components(g).components for n in sorted(comp)]
    index = g.index
    weight = {n: 0.0 for n in g.nodes}
    weight[x] = 1.0
    for node in order:
        if node == x:
            continue
        weight[node] = sum(
            model.coefficients[(p, node)] * weight[p]
            for p in sorted(index.names_of(index.pa[index.pos[node]]))
        )
    return weight[y]


def _as_covariance(source: Covariance | Dataset) -> Covariance:
    if isinstance(source, Dataset):
        return source.covariance()
    return source


def _collinear_columns(sub: np.ndarray, names: Sequence[NodeId]) -> list[NodeId]:
    kept: list[int] = []
    dependent: list[NodeId] = []
    for j in range(sub.shape[0]):
        trial = kept + [j]
        rank = np.linalg.matrix_rank(sub[np.ix_(trial, trial)])
        if rank == len(trial):
            kept.append(j)
        else:
            dependent.append(names[j])
    return dependent


def adjusted_effect(
    source: Covariance | Dataset,
    x: NodeId,
    y: NodeId,
    zs: Iterable[NodeId],
) -> float:
    """Coefficient of x in the least-squares regression of y on {x} | Z.

    Returns 0 when y sits inside the adjusting set: the conditioning set can
    only capture y when no directed path from x to y exists, where the
    interventional effect vanishes.
    """
    if x == y:
        raise ValueError("treatment and outcome must differ")
    cov = _as_covariance(source)
    zs = frozenset(zs)
    if x in zs:
        raise ValueError("the treatment cannot appear in the adjusting set")
    if y in zs:
        return 0.0
    regressors = [x] + sorted(zs)
    idx = [cov.index(n) for n in regressors]
    iy = cov.index(y)
    design = cov.matrix[np.ix_(idx, idx)]
    response = cov.matrix[idx, iy]
    try:
        beta = np.linalg.solve(design, response)
    except np.linalg.LinAlgError:
        raise SingularRegressionError(_collinear_columns(design, regressors)) from None
    return float(beta[0])


def bound_effect(
    source: Covariance | Dataset,
    labeling: StrongLabeling | EssentialGraphResult,
    x: NodeId,
    y: NodeId,
    mode: Mode,
    max_edges: int = MAX_EDGES,
) -> EffectBoundReport:
    """Evaluate the adjusted effect over every candidate adjusting set.

    The modes class/maxoriented/superset enumerate sets from the essential
    graph.  Sets containing y contribute 0 by the adjusted-effect convention.
    """
    if x == y:
        raise ValueError("treatment and outcome must differ")
    sets = sorted(
        enumerate_adjusting_sets(labeling, x, mode, max_edges=max_edges),
        key=AdjustingSet.sort_key,
    )
    cov = _as_covariance(source)
    entries = tuple((aset, adjusted_effect(cov, x, y, aset.nodes)) for aset in sets)
    values = [value for _, value in entries]
    return EffectBoundReport(
        lower=min(values),
        upper=max(values),
        entries=entries,
        mode=mode,
    )
