"""Seeded inputs for the benchmark workloads.

Each workload has a fixed base corpus: graph structures drawn once from a
constant seed, so every run, whatever its `--seed`, processes the same mix of
shapes.  Per-graph cost spans two orders of magnitude within one shape, and
the greedy searches in `ampcg` follow the sorted order of the node names, so
a seed-dependent mix or node order would swamp any program change.  The run
seed picks everything else the program sees: fresh random node names (their
sorted order kept, so the work is the same on every seed), the order of the
lines in each graph file, the end order of undirected edges, the CSV column
order, and the linear-Gaussian model and rows behind each CSV.

Nothing here imports `ampcg`: the generator, the model sampler and the file
writers are the benchmark's own, so a change to the program cannot change
its inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Nodes, directed (tail, head) edges and undirected edges as sorted pairs."""

    nodes: tuple[str, ...]
    directed: frozenset[tuple[str, str]]
    undirected: frozenset[tuple[str, str]]

    def renamed(self, names: dict[str, str]) -> "Graph":
        return Graph(
            nodes=tuple(sorted(names[n] for n in self.nodes)),
            directed=frozenset((names[u], names[v]) for u, v in self.directed),
            undirected=frozenset(
                tuple(sorted((names[a], names[b]))) for a, b in self.undirected
            ),
        )

    def parents(self, x: str) -> frozenset[str]:
        return frozenset(u for u, v in self.directed if v == x)


@dataclass(frozen=True)
class Shape:
    """How a workload's base corpus is drawn and how big one round is."""

    nodes: int
    p_undirected: float
    p_directed: float
    graphs: int
    dag_every: int = 0  # every k-th graph is drawn with no undirected edges
    min_component: int = 1  # least size of the largest undirected component
    rows: int = 0  # CSV rows per graph (bound-csv only)
    pairs: int = 0  # (X, Y) queries per graph (bound-csv only)


@dataclass(frozen=True)
class Op:
    """One CLI command of a round, with what its checks need."""

    argv: tuple[str, ...]
    graph: Graph  # the generating graph, under the run's node names
    index: int  # position of the graph in the base corpus
    x: str = ""
    y: str = ""
    data: str = ""  # CSV path for bound-csv


def _undirected_components(nodes, undirected) -> list[list[str]]:
    root = {n: n for n in nodes}

    def find(n):
        while root[n] != n:
            root[n] = root[root[n]]
            n = root[n]
        return n

    for a, b in sorted(undirected):
        root[find(a)] = find(b)
    comps: dict[str, list[str]] = {}
    for n in nodes:
        comps.setdefault(find(n), []).append(n)
    return sorted(comps.values())


def random_chain_graph(rng: random.Random, n: int, p_u: float, p_d: float) -> Graph:
    """Undirected edges first; their components in random order; directed
    edges only from earlier to later components, so no semidirected cycle."""
    nodes = tuple(f"V{i}" for i in range(n))
    undirected = frozenset(
        (a, b) for a, b in combinations(nodes, 2) if rng.random() < p_u
    )
    comps = _undirected_components(nodes, undirected)
    rng.shuffle(comps)
    rank = {v: i for i, comp in enumerate(comps) for v in comp}
    directed = set()
    for a, b in combinations(nodes, 2):
        if rank[a] != rank[b] and rng.random() < p_d:
            directed.add((a, b) if rank[a] < rank[b] else (b, a))
    return Graph(nodes=tuple(sorted(nodes)), directed=frozenset(directed), undirected=undirected)


def base_corpus(name: str, shape: Shape) -> list[Graph]:
    """The fixed structures of a workload, drawn from a constant seed."""
    rng = random.Random(f"ampcg-bench:{name}:{shape.nodes}")
    graphs: list[Graph] = []
    while len(graphs) < shape.graphs:
        dag = shape.dag_every and len(graphs) % shape.dag_every == 0
        g = random_chain_graph(
            rng, shape.nodes, 0.0 if dag else shape.p_undirected, shape.p_directed
        )
        largest = max(len(c) for c in _undirected_components(g.nodes, g.undirected))
        if largest >= shape.min_component:
            graphs.append(g)
    return graphs


def query_pairs(name: str, shape: Shape, graphs: list[Graph]) -> list[list[tuple[str, str]]]:
    """Fixed (X, Y) queries per base graph, in base-corpus node names."""
    rng = random.Random(f"ampcg-bench:{name}:pairs")
    return [
        rng.sample([(x, y) for x in g.nodes for y in g.nodes if x != y], shape.pairs)
        for g in graphs
    ]


def fresh_names(nodes: tuple[str, ...], rng: random.Random) -> dict[str, str]:
    """Random five-letter names, assigned so that sorted order is kept."""
    first = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    rest = first + first.lower() + "0123456789_"
    names: set[str] = set()
    while len(names) < len(nodes):
        names.add(rng.choice(first) + "".join(rng.choice(rest) for _ in range(4)))
    return dict(zip(sorted(nodes), sorted(names)))


def graph_text(g: Graph, rng: random.Random) -> str:
    """A graph document with node lines first and edge lines in seeded order."""
    lines = [f"edge {u} -> {v}" for u, v in g.directed]
    for a, b in g.undirected:
        lines.append(f"edge {a} -- {b}" if rng.random() < 0.5 else f"edge {b} -- {a}")
    rng.shuffle(lines)
    return "".join(f"node {n}\n" for n in g.nodes) + "".join(f"{line}\n" for line in lines)


def sample_rows(g: Graph, rng: np.random.Generator, rows: int) -> tuple[list[str], np.ndarray]:
    """Rows from a random linear-Gaussian model on g: x = B^T x + eps, with
    eps correlated inside each chain component through a diagonally dominant
    precision matrix, so every block is positive definite."""
    comps = _undirected_components(g.nodes, g.undirected)
    order: list[list[str]] = []
    placed: set[str] = set()
    while len(order) < len(comps):  # topological order of the components
        for comp in comps:
            if comp in order:
                continue
            outside = {u for u, v in g.directed if v in comp} - set(comp)
            if outside <= placed:
                order.append(comp)
                placed.update(comp)
    columns = [n for comp in order for n in comp]
    index = {n: i for i, n in enumerate(columns)}
    coef = {e: rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0)) for e in sorted(g.directed)}
    values = np.zeros((rows, len(columns)))
    for comp in order:
        k = len(comp)
        omega = np.zeros((k, k))
        for i, j in combinations(range(k), 2):
            if tuple(sorted((comp[i], comp[j]))) in g.undirected:
                omega[i, j] = omega[j, i] = rng.uniform(0.2, 0.6) * rng.choice((-1.0, 1.0))
        omega[np.diag_indices(k)] = 1.0 + np.abs(omega).sum(axis=1)
        chol = np.linalg.cholesky(np.linalg.inv(omega))
        noise = rng.standard_normal((rows, k)) @ chol.T
        for j, node in enumerate(comp):
            col = noise[:, j].copy()
            for (u, v), c in coef.items():
                if v == node:
                    col += c * values[:, index[u]]
            values[:, index[node]] = col
    return columns, values


def write_csv(path: Path, columns: list[str], values: np.ndarray) -> None:
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
    path.write_text(",".join(columns) + "\n" + body + "\n")


def build_round(
    name: str, shape: Shape, seed: int, workdir: Path
) -> list[Op]:
    """Write one round's input files for this seed; return its ops in order."""
    graphs = base_corpus(name, shape)
    pairs = query_pairs(name, shape, graphs) if shape.pairs else [[] for _ in graphs]
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    for i, (base, queries) in enumerate(zip(graphs, pairs)):
        names = fresh_names(base.nodes, rng)
        g = base.renamed(names)
        path = workdir / f"g{i:03d}.txt"
        path.write_text(graph_text(g, rng))
        if name == "strong-mid":
            ops.append(Op(("--format", "json", "strong", str(path)), g, i))
        elif name == "eg-large":
            ops.append(Op(("--format", "json", "eg", str(path)), g, i))
        elif name == "maxorient":
            ops.append(Op(("minmax", str(path), "--mode", "max"), g, i))
        elif name == "bound-csv":
            columns, values = sample_rows(g, np.random.default_rng([seed, i]), shape.rows)
            perm = rng.sample(range(len(columns)), len(columns))
            data = workdir / f"d{i:03d}.csv"
            write_csv(data, [columns[j] for j in perm], values[:, perm])
            for x, y in queries:
                argv = ("--format", "json", "bound", str(path), "--data", str(data),
                        "--x", names[x], "--y", names[y], "--mode", "maxoriented")
                ops.append(Op(argv, g, i, x=names[x], y=names[y], data=str(data)))
        else:
            raise ValueError(f"unknown workload {name!r}")
    return ops
