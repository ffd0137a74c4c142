"""Session-scoped corpora shared between the module tests and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from ampcg import (
    ChainGraph,
    EquivalenceClass,
    EssentialGraphResult,
    StrongLabeling,
    enumerate_class,
    essential_graph,
    label_strong,
)
from ampcg.errors import InvariantViolationError

from .support import all_chain_graphs, derive_classes, random_corpus


@dataclass
class PipelineRecord:
    graph: ChainGraph
    cls: EquivalenceClass
    result: EssentialGraphResult
    labeling: StrongLabeling


@dataclass
class PipelineRun:
    records: list[PipelineRecord]
    invariant_violations: list[tuple[ChainGraph, str]] = field(default_factory=list)


def run_pipeline(graphs) -> PipelineRun:
    """Class oracle, essential graph and invariant-checked labeling per graph."""
    run = PipelineRun(records=[])
    for g in graphs:
        cls = enumerate_class(g)
        result = essential_graph(g)
        try:
            labeling = label_strong(result.marks, result.triplexes, check_invariants=True)
        except InvariantViolationError as exc:
            run.invariant_violations.append((g, str(exc)))
            labeling = label_strong(result.marks, result.triplexes)
        run.records.append(PipelineRecord(g, cls, result, labeling))
    return run


@pytest.fixture(scope="session")
def corpus4() -> list[ChainGraph]:
    return all_chain_graphs(("A", "B", "C", "D"))


@pytest.fixture(scope="session")
def classes4(corpus4):
    return derive_classes(corpus4)


@pytest.fixture(scope="session")
def corpus56() -> list[ChainGraph]:
    return random_corpus(
        20260809, 500, (5, 6), p_undirected=0.28, p_directed=0.34, max_edges=12
    )


@pytest.fixture(scope="session")
def corpus7() -> list[ChainGraph]:
    return random_corpus(
        4711, 200, (7,), p_undirected=0.16, p_directed=0.18, max_edges=10
    )


@pytest.fixture(scope="session")
def run56(corpus56) -> PipelineRun:
    return run_pipeline(corpus56)


@pytest.fixture(scope="session")
def run7(corpus7) -> PipelineRun:
    return run_pipeline(corpus7)
