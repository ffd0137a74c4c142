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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, get_args

from .equivalence import _flank_masks
from .errors import (
    MAX_EDGES,
    MAXORIENTED_CAP,
    MixedStrongNeighborsError,
    NotNonStrongNeighborError,
    UnknownNodeError,
    check_cap,
)
from .essential import EssentialGraphResult
from .graphs import ChainGraph, Masks, NodeId, _step, family, pair
from .strong import StrongLabeling

Mode = Literal["class", "maxoriented", "superset"]
MODES = get_args(Mode)


@dataclass(frozen=True)
class AdjustingSet:
    """A candidate conditioning set for the effect of a treatment."""

    nodes: frozenset[NodeId]
    source: frozenset[NodeId] | None = None  # orientation set behind a maxoriented entry

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


def _flanks(
    labeling: StrongLabeling | EssentialGraphResult, x: NodeId
) -> tuple[StNstPartition, tuple[Masks, int, int, dict[int, int]]]:
    """x's partition, and what `_keeps_flanks` reads at x as masks: the
    adjacency, x's parents, its strong neighbors and the flanks of the
    triplexes at x in the essential graph."""
    partition = st_nst(labeling, x)
    index = labeling.graph.index
    b = index.pos[x]
    present = _flank_masks(index.adj, index.pa[b], index.ne[b])
    return partition, (index.adj, index.pa[b], index.mask_of(partition.st), present)


def _keeps_flanks(flanks: tuple[Masks, int, int, dict[int, int]], s: int) -> bool:
    """Does orienting the mask s -> x add no flank the essential graph lacks
    at x?"""
    adj, pa, st, present = flanks
    return all(not cs & ~present.get(a, 0) for a, cs in _flank_masks(adj, pa | s, st).items())


def locally_valid(
    labeling: StrongLabeling | EssentialGraphResult, x: NodeId, s: Iterable[NodeId]
) -> bool:
    """Does orienting s -> x (and x -> the other non-strong neighbors) avoid
    creating any triplex at x the essential graph lacks?"""
    partition, flanks = _flanks(labeling, x)
    s = frozenset(s)
    if not s <= partition.nst:
        raise NotNonStrongNeighborError(
            f"{sorted(s - partition.nst)} are not non-strong neighbors of {x!r}"
        )
    return _keeps_flanks(flanks, labeling.graph.index.mask_of(s))


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
        partition, flanks = _flanks(labeling, x)
        base = partition.st | family(eg, partition.st | {x}, "pa")
        index = eg.index
        nst = [1 << index.pos[n] for n in sorted(partition.nst)]
        found = []

        def grow(s: int, start: int) -> None:
            # local validity is closed under subsets, so only valid sets grow
            if not _keeps_flanks(flanks, s):
                return
            names = index.names_of(s)
            found.append(AdjustingSet(nodes=(base | names) - {x}, source=names))
            check_cap(len(found), MAXORIENTED_CAP, "maxoriented mode exceeds the cap of {cap} sets")
            for i in range(start, len(nst)):
                grow(s | nst[i], i + 1)

        grow(0, 0)
        return frozenset(found)
    if mode == "superset":
        from .oracle import superset_adjusting_sets

        return superset_adjusting_sets(eg, x)
    raise ValueError(f"unknown mode {mode!r}")
