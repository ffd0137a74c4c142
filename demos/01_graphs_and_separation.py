"""Chain-graph basics: validation, components, families, and separation.

A chain graph mixes directed and undirected edges but never allows a
semidirected cycle (a cycle walkable along -> and -- steps with at least one
arrow).  Run this script to see the primitive queries in action.
"""

from ampcg import (
    chain_components,
    family,
    route_is_open,
    separated,
    validate_chain_graph,
)
from ampcg.errors import SemidirectedCycleError

print("== validation ==")
g = validate_chain_graph("ABCD", directed=[("A", "B"), ("C", "B")], undirected=[("C", "D")])
print("valid:", g)

try:
    validate_chain_graph("ABC", directed=[("A", "B"), ("C", "A")], undirected=[("B", "C")])
except SemidirectedCycleError as exc:
    print("rejected:", exc)

print()
print("== chain components (topological order) ==")
for i, comp in enumerate(chain_components(g).components):
    print(f"  {i}: {sorted(comp)}")

print()
print("== families ==")
print("parents of B:      ", sorted(family(g, {"B"}, "pa")))
print("neighbors of C:    ", sorted(family(g, {"C"}, "ne")))
print("adjacents of C:    ", sorted(family(g, {"C"}, "ad")))
print("descendants of A:  ", sorted(family(g, {"A"}, "de")), "(directed paths only)")

print()
print("== separation ==")
# B is a collider-style node on every route between A and D, so conditioning
# on it opens the connection instead of blocking it.
for z in (set(), {"B"}):
    verdict = "separated" if separated(g, {"A"}, {"D"}, z) else "connected"
    print(f"A vs D given {sorted(z) or '{}'}: {verdict}")

print()
print("the route A -> B <- C -- D, checked against the definition:")
for z in (set(), {"B"}):
    verdict = "open" if route_is_open(g, ["A", "B", "C", "D"], z) else "closed"
    print(f"  given {sorted(z) or '{}'}: {verdict}")
