"""Strong edges, shortcut rules, and the merge/split view of a class.

An edge of the essential graph is *strong* when every member of the class
carries it with the same orientation.  Directed essential-graph edges need
not be strong; the labeling algorithm finds exactly the ones that are, and
the shortcut rules S1-S3 (`accelerator_labels`) find some of them without
any re-blocking work.  The paper's S4-S6 are not in the package: every arrow
they would chain from known labels, a re-blocking check finds.
"""

from ampcg import (
    accelerator_labels,
    class_by_merge_split,
    enumerate_class,
    essential_graph,
    label_strong,
    maximally_oriented,
    minimally_oriented,
    strong_oracle,
    validate_chain_graph,
)

print("== a directed essential-graph edge that is not strong ==")
g = validate_chain_graph("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])
result = essential_graph(g)
lab = label_strong(result)
print("essential graph:", result.graph)
print("strong arrows:  ", sorted(lab.strong_directed) or "(none)")
print("members showing why:", *sorted(map(repr, enumerate_class(g))), sep="\n  ")

print()
print("== a strong arrow, and the shortcut rules finding it ==")
g = validate_chain_graph("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
result = essential_graph(g)
lab = label_strong(result)
print("essential graph:", result.graph)
print("strong arrows:  ", sorted(lab.strong_directed))
print("rules alone:    ", sorted(accelerator_labels(result.marks)))

print()
print("== the rules are incomplete: a two-step disjunction ==")
g = validate_chain_graph("ABCDE", [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")])
result = essential_graph(g)
lab = label_strong(result)
rules = accelerator_labels(result.marks)
print("strong arrows:  ", sorted(lab.strong_directed))
print("rules alone:    ", sorted(rules), " (D->E needs the re-blocking check)")
print("oracle agrees:  ", sorted(strong_oracle(enumerate_class(g)).directed))

print()
print("== merges and splits walk the whole class ==")
g = validate_chain_graph("ABC", [("A", "B"), ("C", "B")])
closure = class_by_merge_split(g)
print("closure of", g, "has", len(closure), "members:")
for member in sorted(closure, key=repr):
    print("  ", member)
print("minimally oriented (no feasible merge):")
for member in sorted(minimally_oriented(g), key=repr):
    print("  ", member)
print("one maximally oriented witness:", maximally_oriented(g))
