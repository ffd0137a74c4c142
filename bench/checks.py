"""Output checks that share no code with `ampcg`.

Every routine here is the benchmark's own: the graph-document and JSON
readers, the triplex routine, the semidirected-cycle search and the
least-squares reference.  Each check returns a list of problems, empty when
the output is correct.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

from corpus import Graph, Op


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def skeleton(g: Graph) -> frozenset[tuple[str, str]]:
    return frozenset(_pair(u, v) for u, v in g.directed) | g.undirected


def triplexes(g: Graph) -> frozenset[tuple[str, tuple[str, str]]]:
    """(middle, flanks) for every induced a ~ b ~ c with non-adjacent flanks,
    both flank edges arrow-into-b or undirected, and at least one arrow."""
    skel = skeleton(g)
    into: dict[str, set[str]] = {n: set() for n in g.nodes}
    und: dict[str, set[str]] = {n: set() for n in g.nodes}
    for u, v in g.directed:
        into[v].add(u)
    for a, b in g.undirected:
        und[a].add(b)
        und[b].add(a)
    out = set()
    for b in g.nodes:
        for a, c in combinations(sorted(into[b] | und[b]), 2):
            if _pair(a, c) not in skel and (a in into[b] or c in into[b]):
                out.add((b, (a, c)))
    return frozenset(out)


def semidirected_cycle(g: Graph) -> tuple[str, str] | None:
    """A directed edge u -> v with a route back from v to u along -> and --
    steps, or None when the graph has no semidirected cycle."""
    succ: dict[str, set[str]] = {n: set() for n in g.nodes}
    for u, v in g.directed:
        succ[u].add(v)
    for a, b in g.undirected:
        succ[a].add(b)
        succ[b].add(a)
    for u, v in sorted(g.directed):
        seen, stack = {v}, [v]
        while stack:
            node = stack.pop()
            if node == u:
                return (u, v)
            for w in succ[node] - seen:
                seen.add(w)
                stack.append(w)
    return None


def _graph(nodes, directed, undirected) -> Graph:
    return Graph(
        nodes=tuple(sorted(nodes)),
        directed=frozenset(tuple(e) for e in directed),
        undirected=frozenset(_pair(a, b) for a, b in undirected),
    )


def parse_text(text: str) -> Graph:
    """Read a graph document as `ampcg minmax` prints it."""
    nodes, directed, undirected = set(), [], []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["node"] and len(tokens) == 2:
            nodes.add(tokens[1])
        elif tokens[:1] == ["edge"] and len(tokens) == 4 and tokens[2] in ("->", "--"):
            (directed if tokens[2] == "->" else undirected).append((tokens[1], tokens[3]))
        else:
            raise ValueError(f"unreadable line {line!r}")
    return _graph(nodes, directed, undirected)


def parse_kind_json(doc: dict) -> Graph:
    """Read the `nodes`/`edges` object with a `kind` per edge."""
    directed = [(e["u"], e["v"]) for e in doc["edges"] if e["kind"] == "directed"]
    undirected = [(e["u"], e["v"]) for e in doc["edges"] if e["kind"] == "undirected"]
    if len(directed) + len(undirected) != len(doc["edges"]):
        raise ValueError("edge of unknown kind")
    return _graph(doc["nodes"], directed, undirected)


def finalize_marks(doc: dict) -> Graph:
    """Finalize `eg --format json` end marks: an edge blocked at one end only
    becomes an arrow out of that end; every other edge stays undirected.
    The `strong` field is ignored: it is never set."""
    directed, undirected = [], []
    for e in doc["edges"]:
        if e["blocked_u"] and not e["blocked_v"]:
            directed.append((e["u"], e["v"]))
        elif e["blocked_v"] and not e["blocked_u"]:
            directed.append((e["v"], e["u"]))
        else:
            undirected.append((e["u"], e["v"]))
    return _graph(doc["nodes"], directed, undirected)


def same_class(out: Graph, gen: Graph) -> list[str]:
    """The output is a chain graph with the generator's skeleton and triplexes."""
    problems = []
    if set(out.nodes) != set(gen.nodes):
        problems.append("node set differs")
    if len(skeleton(out)) != len(out.directed) + len(out.undirected):
        problems.append("more than one edge between a pair")
    if skeleton(out) != skeleton(gen):
        problems.append("skeleton differs")
    elif triplexes(out) != triplexes(gen):
        problems.append("triplexes differ")
    cycle = semidirected_cycle(out)
    if cycle:
        problems.append(f"semidirected cycle through {cycle[0]} -> {cycle[1]}")
    return problems


def strong_labels(doc: dict) -> tuple[frozenset, frozenset]:
    return (
        frozenset(tuple(e) for e in doc["strong_directed"]),
        frozenset(_pair(*e) for e in doc["strong_undirected"]),
    )


def check_strong(text: str, gen: Graph) -> list[str]:
    doc = json.loads(text)
    eg = parse_kind_json(doc)
    problems = same_class(eg, gen)
    strong_dir, strong_und = strong_labels(doc)
    if not strong_dir <= eg.directed or not strong_und <= eg.undirected:
        problems.append("a strong label names an edge the essential graph lacks")
    if not strong_dir <= gen.directed:
        problems.append("a strong arrow is not an arrow of the generating graph")
    if not strong_und <= gen.undirected:
        problems.append("a strong undirected edge is directed in the generating graph")
    return problems


def check_eg(text: str, gen: Graph) -> list[str]:
    return same_class(finalize_marks(json.loads(text)), gen)


def check_maxorient(text: str, strong_text: str, gen: Graph) -> list[str]:
    """Equivalent to the input, a valid chain graph, and undirected exactly on
    the strong undirected edges that `ampcg strong` reports."""
    out = parse_text(text)
    problems = same_class(out, gen)
    if out.undirected != strong_labels(json.loads(strong_text))[1]:
        problems.append("undirected edges differ from the strong undirected edges")
    return problems


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def lstsq_effect(columns: list[str], rows: np.ndarray, x: str, y: str, zs) -> float:
    """Coefficient of x in the least-squares fit of y on x and zs, centred."""
    if y in zs:
        return 0.0  # ampcg's convention: a set holding y reports no effect
    centred = rows - rows.mean(axis=0)
    idx = {c: i for i, c in enumerate(columns)}
    design = centred[:, [idx[n] for n in [x] + sorted(zs)]]
    beta = np.linalg.lstsq(design, centred[:, idx[y]], rcond=None)[0]
    return float(beta[0])


def check_bound(text: str, op: Op, data: tuple[list[str], np.ndarray]) -> list[str]:
    doc = json.loads(text)
    problems = []
    if (doc["x"], doc["y"], doc["mode"]) != (op.x, op.y, "maxoriented"):
        problems.append("query echoed wrongly")
    entries = doc["entries"]
    if not entries:
        return problems + ["no adjusting set reported"]
    sets = [frozenset(e["set"]) for e in entries]
    if any(op.x in s for s in sets):
        problems.append("an adjusting set contains X")
    for s, e in zip(sets, entries):
        want = lstsq_effect(*data, op.x, op.y, s)
        if abs(e["effect"] - want) > 1e-8:
            problems.append(f"effect for {sorted(s)} is {e['effect']!r}, lstsq gives {want!r}")
    values = [e["effect"] for e in entries]
    if doc["lower"] != min(values) or doc["upper"] != max(values):
        problems.append("bounds are not the min and max of the entries")
    if not op.graph.undirected and op.graph.parents(op.x) not in sets:
        problems.append("pa(X) of the generating DAG is not among the sets")
    return problems
