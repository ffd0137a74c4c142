"""Adjusting sets and the three strategies for enumerating them.

Adjusting for the neighbors of a treatment node plus the parents of the node
and its neighbors blocks every non-causal route, which makes interventional
effects computable from observational quantities.  When only the essential
graph is known, the candidate adjusting sets can be enumerated from the whole
class, from the maximally oriented members alone (via locally valid
orientation sets, no enumeration needed), or bounded by a crude superset of
adjacency closures.  The `class` and `superset` modes are brute force and
live in `ampcg.oracle`, which loads only when one of them runs.

The functions here read only a labeling's `.graph` and `.strong_undirected`,
so `essential_graph(g)` serves as well as `strong_labeling(g)` and spares the
strong-arrow search.

Local validity is a clique test.  Orienting a set s of x's non-strong
neighbors into x (and x into the others) is locally valid when it adds no
triplex at x the essential graph lacks, the AMP form of IDA's local
criterion (Maathuis, Kalisch & Buhlmann, *Ann. Statist.* 2009).  If x has
strong neighbors, it has no non-strong ones (`st_nst`), so s is empty.
Otherwise x ends with parents pa(x) | s and no undirected neighbor, so a
new triplex at x has two non-adjacent flanks in pa(x) | s.  Flanks p in
pa(x) and v in pa(x) | s already make a triplex at x, where v -> x or
v -- x; two flanks in s make a new one.  Two non-strong neighbors of x lie
in its chain component, so any edge between them is undirected: s is valid
exactly when it is a clique of the undirected edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, get_args

from .errors import (
    MAX_EDGES,
    MAXORIENTED_CAP,
    MixedStrongNeighborsError,
    NotNonStrongNeighborError,
    UnknownNodeError,
    check_cap,
)
from .essential import EssentialGraphResult
from .graphs import ChainGraph, NodeId, _is_clique, _step, family, pair
from .strong import StrongLabeling

Mode = Literal["class", "maxoriented", "superset"]
MODES = get_args(Mode)


@dataclass(frozen=True)
class AdjustingSet:
    """A candidate conditioning set for the effect of a treatment."""

    nodes: frozenset[NodeId]
    # orientation set behind a maxoriented entry; equal nodes are one set
    source: frozenset[NodeId] | None = field(default=None, compare=False)

    def sort_key(self) -> tuple:
        return (len(self.nodes), tuple(sorted(self.nodes)))


@dataclass(frozen=True)
class StNstPartition:
    """Undirected neighbors of a node split by strong label.

    For any essential graph one side is always empty; a violation means the
    labeling machinery itself is broken.
    """

    st: frozenset[NodeId]
    nst: frozenset[NodeId]


def adjusting_set(g: ChainGraph, x: NodeId) -> frozenset[NodeId]:
    """Neighbors of x plus parents of x and its neighbors, minus x itself."""
    if x not in g.nodes:
        raise UnknownNodeError(f"unknown node {x!r}")
    index = g.index
    i = index.pos[x]
    ne = index.ne[i]
    return index.names_of((ne | _step(index.pa, ne | 1 << i)) & ~(1 << i))


def st_nst(labeling: StrongLabeling | EssentialGraphResult, x: NodeId) -> StNstPartition:
    """Partition the undirected neighbors of x into strong and non-strong."""
    eg = labeling.graph
    if x not in eg.nodes:
        raise UnknownNodeError(f"unknown node {x!r}")
    index = eg.index
    neighbors = index.names_of(index.ne[index.pos[x]])
    st = frozenset(a for a in neighbors if pair(a, x) in labeling.strong_undirected)
    nst = neighbors - st
    if st and nst:
        raise MixedStrongNeighborsError(
            f"{x!r} has strong neighbors {sorted(st)} and non-strong {sorted(nst)}"
        )
    return StNstPartition(st=st, nst=nst)


def locally_valid(
    labeling: StrongLabeling | EssentialGraphResult, x: NodeId, s: Iterable[NodeId]
) -> bool:
    """Does orienting s -> x (and x -> the other non-strong neighbors) avoid
    creating any triplex at x the essential graph lacks?  Exactly when s is
    a clique (the module docstring has the argument)."""
    nst = st_nst(labeling, x).nst
    s = frozenset(s)
    if not s <= nst:
        raise NotNonStrongNeighborError(
            f"{sorted(s - nst)} are not non-strong neighbors of {x!r}"
        )
    index = labeling.graph.index
    return _is_clique(index.ne, index.mask_of(s))


def enumerate_adjusting_sets(
    labeling: StrongLabeling | EssentialGraphResult,
    x: NodeId,
    mode: Mode,
    max_edges: int = MAX_EDGES,
) -> frozenset[AdjustingSet]:
    """Candidate adjusting sets for x under the chosen strategy.

    class: the adjusting set of every class member (brute-force enumeration,
    in `ampcg.oracle`).
    maxoriented: strong neighbors plus their and x's parents plus each locally
    valid orientation set; exactly the adjusting sets of the maximally
    oriented members.  Refused once it has grown more than
    `errors.MAXORIENTED_CAP` sets.
    superset: every subset of the two-step adjacency closure of x; a looser
    envelope that needs no class (in `ampcg.oracle`).
    """
    eg = labeling.graph
    if x not in eg.nodes:
        raise UnknownNodeError(f"unknown node {x!r}")
    if mode == "class":
        from .oracle import class_adjusting_sets

        return class_adjusting_sets(eg, x, max_edges)
    if mode == "maxoriented":
        partition = st_nst(labeling, x)
        base = partition.st | family(eg, partition.st | {x}, "pa")
        index = eg.index
        found = []

        def grow(s: int, candidates: int) -> None:
            # the locally valid sets are the cliques, so each step keeps only
            # the candidates joined to the one it adds
            names = index.names_of(s)
            found.append(AdjustingSet(nodes=(base | names) - {x}, source=names))
            check_cap(len(found), MAXORIENTED_CAP, "maxoriented mode exceeds the cap of {cap} sets")
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                grow(s | low, candidates & index.ne[low.bit_length() - 1])

        grow(0, index.mask_of(partition.nst))
        return frozenset(found)
    if mode == "superset":
        from .oracle import superset_adjusting_sets

        return superset_adjusting_sets(eg, x)
    raise ValueError(f"unknown mode {mode!r}")
