"""Adjusting sets and the three strategies for enumerating them.

Adjusting for the neighbors of a treatment node plus the parents of the node
and its neighbors blocks every non-causal route, which makes interventional
effects computable from observational quantities.  When only the essential
graph is known, the candidate adjusting sets can be enumerated from the whole
class, from the maximally oriented members alone (via locally valid
orientation sets, no enumeration needed), or bounded by a crude superset of
adjacency closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Literal

from .equivalence import _flanks, _triplex_flanks, enumerate_class
from .errors import (
    MixedStrongNeighborsError,
    NotNonStrongNeighborError,
    TooLargeError,
    UnknownNodeError,
)
from .graphs import ChainGraph, NodeId, family, pair
from .strong import StrongLabeling

Mode = Literal["class", "maxoriented", "superset"]
MODES = ("class", "maxoriented", "superset")
#: most nodes in the `superset` base, whose every subset becomes a set
SUPERSET_CAP = 20


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
    ne = family(g, {x}, "ne")
    return (ne | family(g, ne | {x}, "pa")) - {x}


def st_nst(labeling: StrongLabeling, x: NodeId) -> StNstPartition:
    """Partition the undirected neighbors of x into strong and non-strong."""
    eg = labeling.graph
    if x not in eg.nodes:
        raise UnknownNodeError(f"unknown node {x!r}")
    neighbors = eg.neighbor_map[x]
    st = frozenset(a for a in neighbors if pair(a, x) in labeling.strong_undirected)
    nst = neighbors - st
    if st and nst:
        raise MixedStrongNeighborsError(
            f"{x!r} has strong neighbors {sorted(st)} and non-strong {sorted(nst)}"
        )
    return StNstPartition(st=st, nst=nst)


def locally_valid(labeling: StrongLabeling, x: NodeId, s: Iterable[NodeId]) -> bool:
    """Does orienting s -> x (and x -> the other non-strong neighbors) avoid
    creating any triplex at x the essential graph lacks?"""
    eg = labeling.graph
    partition = st_nst(labeling, x)
    s = frozenset(s)
    if not s <= partition.nst:
        raise NotNonStrongNeighborError(
            f"{sorted(s - partition.nst)} are not non-strong neighbors of {x!r}"
        )
    return _flanks(eg, eg.parent_map[x] | s, partition.st) <= _triplex_flanks(eg, x)


def enumerate_adjusting_sets(
    labeling: StrongLabeling,
    x: NodeId,
    mode: Mode,
    max_edges: int = 16,
) -> frozenset[AdjustingSet]:
    """Candidate adjusting sets for x under the chosen strategy.

    class: the adjusting set of every class member (brute-force enumeration).
    maxoriented: strong neighbors plus their and x's parents plus each locally
    valid orientation set; exactly the adjusting sets of the maximally
    oriented members.
    superset: every subset of the two-step adjacency closure of x; a looser
    but enumeration-free envelope.
    """
    eg = labeling.graph
    if x not in eg.nodes:
        raise UnknownNodeError(f"unknown node {x!r}")
    if mode == "class":
        sets: dict[frozenset[NodeId], AdjustingSet] = {}
        for member in sorted(enumerate_class(eg, max_edges=max_edges), key=repr):
            z = adjusting_set(member, x)
            sets.setdefault(z, AdjustingSet(nodes=z))
        return frozenset(sets.values())
    if mode == "maxoriented":
        partition = st_nst(labeling, x)
        base = partition.st | family(eg, partition.st | {x}, "pa")
        nst = sorted(partition.nst)
        found = []

        def grow(s: frozenset[NodeId], start: int) -> None:
            # local validity is closed under subsets, so only valid sets grow
            if not locally_valid(labeling, x, s):
                return
            z = (base | s) - {x}
            found.append(AdjustingSet(nodes=z, source=s))
            for i in range(start, len(nst)):
                grow(s | {nst[i]}, i + 1)

        grow(frozenset(), 0)
        return frozenset(found)
    if mode == "superset":
        ad = family(eg, {x}, "ad")
        base = sorted((ad | family(eg, ad, "ad")) - {x})
        if len(base) > SUPERSET_CAP:
            raise TooLargeError(
                f"superset base of {len(base)} nodes exceeds the cap of {SUPERSET_CAP}"
            )
        out = set()
        for size in range(len(base) + 1):
            for combo in combinations(base, size):
                out.add(AdjustingSet(nodes=frozenset(combo)))
        return frozenset(out)
    raise ValueError(f"unknown mode {mode!r}")
