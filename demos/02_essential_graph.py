"""Essential-graph construction, from both directions.

The essential graph of an equivalence class keeps an arrow exactly when every
member of the class that orients the edge does so the same way.  The
constructive algorithm (triplex set + end-block rules) must agree with
the definition applied to the brute-force class enumeration.
"""

from ampcg import (
    enumerate_class,
    essential_from_class,
    essential_graph,
    serialize_graph,
    validate_chain_graph,
)

examples = {
    "flag A->B--C": validate_chain_graph("ABC", [("A", "B")], [("B", "C")]),
    "single undirected edge": validate_chain_graph("AB", [], [("A", "B")]),
    "collider with tail": validate_chain_graph(
        "ABCD", [("A", "B"), ("C", "B")], [("C", "D")]
    ),
    "chordless square": validate_chain_graph(
        "ABCD", [], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")]
    ),
}

for name, g in examples.items():
    result = essential_graph(g)
    cls = enumerate_class(g)
    oracle = essential_from_class(cls)
    print(f"== {name} ==")
    print("input:          ", g)
    print("class size:     ", len(cls))
    print("essential graph:", result.graph)
    print("oracle says:    ", oracle, "(agrees)" if oracle == result.graph else "(MISMATCH)")
    blocked = sorted(result.marks.blocked)
    print("end blocks:     ", blocked if blocked else "(none)")
    print()

print("the essential graph is a fixpoint of the construction:")
g = examples["flag A->B--C"]
eg = essential_graph(g).graph
print(serialize_graph(essential_graph(eg).graph).strip())
