"""Bounding a causal effect when only the essential graph is known.

The data identify a chain graph only up to Markov equivalence.  Each member
of the class has its own adjusting set, so the interventional effect of one
node on another is bounded by the spread of adjusted regression coefficients
over all candidate sets.  Three enumeration strategies are compared here on
data sampled from a known generating model.  They read only the essential
graph and its strong undirected edges, so `essential_graph(g)` is all they
need; `strong_labeling(g)` would also search for strong arrows.
"""

import random

from ampcg import (
    bound_effect,
    enumerate_adjusting_sets,
    essential_graph,
    population_covariance,
    random_chain_graph,
    random_model,
    sample,
    st_nst,
    true_effect,
    validate_chain_graph,
)

print("== the simplest ambiguous case: one undirected edge ==")
truth_graph = validate_chain_graph("AB", [("A", "B")])  # the (unknown) truth
model = random_model(truth_graph, seed=9)
beta = model.coefficients[("A", "B")]
cov = population_covariance(model)
essential = essential_graph(validate_chain_graph("AB", [], [("A", "B")]))
report = bound_effect(cov, essential, "A", "B", "maxoriented")
for aset, value in report.entries:
    print(f"  adjust for {sorted(aset.nodes) or '{}'}: effect = {value:+.4f}")
print(f"  true coefficient {beta:+.4f} lies in [{report.lower:+.4f}, {report.upper:+.4f}]")

print()
print("== a larger graph, sampled data, all three strategies ==")
rnd = random.Random(2)
g = random_chain_graph(rnd, tuple("ABCDEF"), p_undirected=0.25, p_directed=0.3)
model = random_model(g, seed=31)
essential = essential_graph(g)
x, y = "A", sorted(g.nodes - {"A"})[-1]
truth = true_effect(model, x, y)
data = sample(model, 50_000, seed=5)
pop = population_covariance(model)
print("generating graph:", g)
print(f"target: effect of {x} on {y}; truth = {truth:+.4f}")
print("population input (class bounds are guaranteed to cover the truth):")
for mode in ("class", "maxoriented", "superset"):
    report = bound_effect(pop, essential, x, y, mode)
    print(
        f"  {mode:<12} {len(report.entries):>3} sets -> "
        f"[{report.lower:+.4f}, {report.upper:+.4f}]"
    )
print("sample estimates from 50k rows (subject to sampling error):")
for mode in ("class", "maxoriented", "superset"):
    report = bound_effect(data, essential, x, y, mode)
    print(
        f"  {mode:<12} {len(report.entries):>3} sets -> "
        f"[{report.lower:+.4f}, {report.upper:+.4f}]"
    )

print()
print("== where the maxoriented sets come from ==")
part = st_nst(essential, x)
print(f"strong undirected neighbors of {x}:    ", sorted(part.st) or "(none)")
print(f"non-strong undirected neighbors of {x}:", sorted(part.nst) or "(none)")
for aset in sorted(enumerate_adjusting_sets(essential, x, "maxoriented"),
                   key=lambda a: a.sort_key()):
    print(f"  orient {sorted(aset.source) or '{}'} toward {x}  ->  adjust for {sorted(aset.nodes) or '{}'}")
