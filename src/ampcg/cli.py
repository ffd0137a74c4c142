"""Command-line interface over the whole pipeline.

Exit codes: 0 success, 1 usage error, 2 validation or domain failure,
3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import __version__
from .causal import MODES, adjusting_set, enumerate_adjusting_sets
from .equivalence import equivalent
from .errors import (
    MAX_EDGES,
    GraphError,
    InvariantViolationError,
    ModelError,
    ParseError,
    TooLargeError,
)
from .essential import essential_graph
from .graphs import ChainGraph, chain_components
from .io_text import (
    graph_to_json,
    parse_graph,
    read_dataset,
    serialize_graph,
    to_dot,
    to_json,
    write_dataset,
)
from .strong import accelerator_labels, label_strong
from .transform import maximally_oriented

USAGE_EXIT = 1
FAILURE_EXIT = 2
TOO_LARGE_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


#: the formats a command writes: DOT where it prints one graph, JSON where
#: it prints more than a verdict or a file summary
_TEXT, _TEXT_JSON, _ALL_FORMATS = ("text",), ("text", "json"), ("text", "json", "dot")


def _check_format(ns) -> None:
    """Raise a usage error when the parsed command cannot write `--format`.
    `strong --rules-only` and `minmax --mode min` print lists, not a graph."""
    command, formats = ns.command, ns.formats
    if command == "strong" and ns.rules_only:
        command, formats = "strong --rules-only", _TEXT_JSON
    elif command == "minmax" and ns.mode == "min":
        command, formats = "minmax --mode min", _TEXT_JSON
    if ns.format not in formats:
        raise _UsageError(f"{command} cannot write --format {ns.format}")


def _at_least(text: str, least: int, kind: str) -> int:
    """A base-10 integer that is at least `least`, or argparse's type error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
    return value


def _non_negative(text: str) -> int:
    """An argparse type: a base-10 integer that is at least 0."""
    return _at_least(text, 0, "non-negative")


def _positive(text: str) -> int:
    """An argparse type: a base-10 integer that is at least 1."""
    return _at_least(text, 1, "positive")


def _load_graph(path: str) -> ChainGraph:
    with open(path) as fh:
        return parse_graph(fh.read())


def _print_graph(g: ChainGraph, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(to_json(g))
    elif fmt == "dot":
        sys.stdout.write(to_dot(g))
    else:
        sys.stdout.write(serialize_graph(g))


def _print_doc(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _print_members(members: list[ChainGraph], fmt: str, key: str, noun: str, **doc) -> None:
    """JSON: `doc` with the members under `key`; text: a count of `noun`,
    then one member per line."""
    if fmt == "json":
        doc[key] = [graph_to_json(m) for m in members]
        _print_doc(doc)
    else:
        sys.stdout.write(f"{len(members)} {noun}\n")
        for m in members:
            sys.stdout.write(serialize_graph(m).replace("\n", "; ").rstrip("; ") + "\n")


def _split_nodes(raw: str | None) -> frozenset[str]:
    if not raw:
        return frozenset()
    return frozenset(part for part in raw.split(",") if part)


def _cmd_validate(ns) -> int:
    g = _load_graph(ns.graph)
    _print_graph(g, ns.format)
    return 0


def _cmd_components(ns) -> int:
    g = _load_graph(ns.graph)
    comps = chain_components(g).components
    if ns.format == "json":
        doc = {"components": [sorted(c) for c in comps]}
        _print_doc(doc)
    else:
        for i, comp in enumerate(comps):
            sys.stdout.write(f"{i}: {' '.join(sorted(comp))}\n")
    return 0


def _cmd_sep(ns) -> int:
    from .separation import separated

    g = _load_graph(ns.graph)
    xs, ys, zs = _split_nodes(ns.x), _split_nodes(ns.y), _split_nodes(ns.z)
    result = separated(g, xs, ys, zs)
    if ns.format == "json":
        doc = {
            "x": sorted(xs),
            "y": sorted(ys),
            "z": sorted(zs),
            "separated": result,
        }
        _print_doc(doc)
    else:
        sys.stdout.write(("separated" if result else "connected") + "\n")
    return 0


def _cmd_equiv(ns) -> int:
    g, h = _load_graph(ns.graph1), _load_graph(ns.graph2)
    result = equivalent(g, h)
    sys.stdout.write(("equivalent" if result else "not equivalent") + "\n")
    return 0


def _cmd_class(ns) -> int:
    from .oracle import enumerate_class

    cls = enumerate_class(_load_graph(ns.graph), max_edges=ns.max_edges)
    members = sorted(cls.members, key=repr)
    _print_members(members, ns.format, "members", "members", size=len(members))
    return 0


def _cmd_eg(ns) -> int:
    g = _load_graph(ns.graph)
    result = essential_graph(g)
    if ns.format == "json":
        sys.stdout.write(to_json(result.marks))
    else:
        _print_graph(result.graph, ns.format)
    return 0


def _cmd_strong(ns) -> int:
    g = _load_graph(ns.graph)
    result = essential_graph(g)
    if ns.rules_only:
        labels = sorted(accelerator_labels(result.marks))
        if ns.format == "json":
            doc = {"strong_directed": [list(e) for e in labels]}
            _print_doc(doc)
        else:
            for u, v in labels:
                sys.stdout.write(f"{u} -> {v} strong\n")
            if not labels:
                sys.stdout.write("no strong edges detected by rules\n")
        return 0
    labeling = label_strong(result)
    if ns.format == "json":
        sys.stdout.write(to_json(labeling))
    elif ns.format == "dot":
        sys.stdout.write(to_dot(labeling))
    else:
        for u, v in sorted(labeling.strong_directed):
            sys.stdout.write(f"{u} -> {v} strong\n")
        for a, b in sorted(labeling.strong_undirected):
            sys.stdout.write(f"{a} -- {b} strong\n")
        total = len(labeling.strong_directed) + len(labeling.strong_undirected)
        if not total:
            sys.stdout.write("no strong edges\n")
    return 0


def _cmd_minmax(ns) -> int:
    g = _load_graph(ns.graph)
    if ns.mode == "min":
        from .oracle import minimally_oriented

        members = sorted(minimally_oriented(g, max_edges=ns.max_edges), key=repr)
        _print_members(
            members, ns.format, "minimally_oriented", "minimally oriented members"
        )
    else:
        witness = maximally_oriented(g)
        _print_graph(witness, ns.format)
    return 0


def _cmd_adjust(ns) -> int:
    result = essential_graph(_load_graph(ns.graph))
    sets = sorted(
        enumerate_adjusting_sets(result, ns.x, ns.mode, max_edges=ns.max_edges),
        key=lambda a: a.sort_key(),
    )
    if ns.format == "json":
        doc = {
            "x": ns.x,
            "mode": ns.mode,
            "sets": [sorted(a.nodes) for a in sets],
        }
        _print_doc(doc)
    else:
        for a in sets:
            names = " ".join(sorted(a.nodes))
            sys.stdout.write(f"{{{names}}}\n" if names else "(empty)\n")
    return 0


def _cmd_sample(ns) -> int:
    from .gaussian import random_model, sample

    g = _load_graph(ns.graph)
    model = random_model(g, seed=ns.seed)
    ds = sample(model, n=ns.n, seed=ns.seed)
    write_dataset(ds, ns.out)
    sys.stdout.write(f"wrote {ns.n} rows over {len(ds.columns)} columns to {ns.out}\n")
    return 0


def _cmd_bound(ns) -> int:
    from .gaussian import bound_effect

    g = _load_graph(ns.graph)
    ds = read_dataset(ns.data)
    columns = set(ds.columns)
    if len(columns) != len(ds.columns) or columns != g.nodes:
        raise ModelError(
            f"dataset columns {list(ds.columns)} must name each graph node "
            f"{list(g.sorted_nodes)} exactly once"
        )
    report = bound_effect(
        ds, essential_graph(g), ns.x, ns.y, ns.mode, max_edges=ns.max_edges
    )
    if ns.format == "json":
        doc = {
            "x": ns.x,
            "y": ns.y,
            "mode": report.mode,
            "lower": report.lower,
            "upper": report.upper,
            "entries": [
                {"set": sorted(aset.nodes), "effect": value}
                for aset, value in report.entries
            ],
        }
        _print_doc(doc)
    else:
        for aset, value in report.entries:
            names = " ".join(sorted(aset.nodes)) if aset.nodes else "(empty)"
            sys.stdout.write(f"Z = {names:<24} effect = {value:+.6f}\n")
        sys.stdout.write(f"bounds: [{report.lower:.6f}, {report.upper:.6f}]\n")
    return 0


def _cmd_oracle(ns) -> int:
    from .oracle import (
        _merge_free,
        _split_free,
        class_by_merge_split,
        enumerate_class,
        essential_from_class,
        strong_oracle,
    )

    g = _load_graph(ns.graph)
    checks: list[tuple[str, bool]] = []
    cls = enumerate_class(g, max_edges=ns.max_edges)
    result = essential_graph(g)
    eg_oracle = essential_from_class(cls)
    checks.append(("essential graph matches class oracle", result.graph == eg_oracle))
    try:
        labeling = label_strong(result, check_invariants=True)
        invariants_hold = True
    except InvariantViolationError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        labeling = label_strong(result)
        invariants_hold = False
    summary = strong_oracle(cls)
    checks.append(
        (
            "strong labels match class oracle",
            labeling.strong_directed == summary.directed
            and labeling.strong_undirected == summary.undirected,
        )
    )
    checks.append(("re-blocking invariants hold, rule shortcut is sound", invariants_hold))
    closure = class_by_merge_split(g, max_edges=ns.max_edges)
    checks.append(("merge/split closure equals brute force", closure.members == cls.members))
    arrow_minimal = {
        m
        for m in cls.members
        if not any(m.directed > other.directed for other in cls.members)
    }
    checks.append(
        ("minimally oriented members are the arrow-minimal ones", _merge_free(cls) == arrow_minimal)
    )
    maxes = _split_free(cls, ns.max_edges)
    checks.append(
        ("maximally oriented members share undirected edges",
         len({m.undirected for m in maxes}) == 1)
    )
    checks.append(
        ("maximally oriented witness is a brute-force member", maximally_oriented(g) in maxes)
    )
    adj_ok = all(
        {a.nodes for a in enumerate_adjusting_sets(result, x, "maxoriented")}
        == {adjusting_set(m, x) for m in maxes}
        for x in result.graph.sorted_nodes
    )
    checks.append(("adjusting sets match maximally oriented members", adj_ok))
    all_ok = all(ok for _, ok in checks)
    width = max(len(name) for name, _ in checks)
    for name, ok in checks:
        sys.stdout.write(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}\n")
    return 0 if all_ok else FAILURE_EXIT


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; every parse makes a
    fresh namespace.  Handlers are bound at first build, so tests patch what
    the `_cmd_*` functions call, not the `_cmd_*` functions themselves."""
    parser = _Parser(prog="ampcg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ampcg {__version__}")
    formats = {"choices": _ALL_FORMATS, "help": "output format (default: text)"}
    parser.add_argument("--format", default="text", **formats)
    # after the subcommand too; SUPPRESS keeps an absent one from resetting
    # the value given before it
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", default=argparse.SUPPRESS, **formats)
    parser.add_argument("--seed", type=_non_negative, default=0, help="random seed")
    parser.add_argument(
        "--max-edges", type=_non_negative, default=MAX_EDGES, help="cap for class enumerations"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a graph document", parents=[fmt])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_validate, formats=_ALL_FORMATS)

    p = sub.add_parser("components", help="chain components in topological order", parents=[fmt])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_components, formats=_TEXT_JSON)

    p = sub.add_parser("sep", help="test a separation query", parents=[fmt])
    p.add_argument("graph")
    p.add_argument("--x", required=True, help="comma-separated nodes")
    p.add_argument("--y", required=True, help="comma-separated nodes")
    p.add_argument("--z", default="", help="comma-separated nodes")
    p.set_defaults(func=_cmd_sep, formats=_TEXT_JSON)

    p = sub.add_parser("equiv", help="test Markov equivalence of two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=_cmd_equiv, formats=_TEXT)

    p = sub.add_parser("class", help="enumerate the equivalence class", parents=[fmt])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_class, formats=_TEXT_JSON)

    p = sub.add_parser("eg", help="construct the essential graph", parents=[fmt])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_eg, formats=_ALL_FORMATS)

    p = sub.add_parser("strong", help="label strong edges in the essential graph", parents=[fmt])
    p.add_argument("graph")
    p.add_argument(
        "--rules-only", action="store_true",
        help="report only the labels found by the shortcut rules",
    )
    p.set_defaults(func=_cmd_strong, formats=_ALL_FORMATS)

    p = sub.add_parser("minmax", help="minimally or maximally oriented members", parents=[fmt])
    p.add_argument("graph")
    p.add_argument("--mode", choices=("min", "max"), required=True)
    p.set_defaults(func=_cmd_minmax, formats=_ALL_FORMATS)

    p = sub.add_parser("adjust", help="enumerate adjusting sets for a node", parents=[fmt])
    p.add_argument("graph")
    p.add_argument("--x", required=True)
    p.add_argument("--mode", choices=MODES, default="maxoriented")
    p.set_defaults(func=_cmd_adjust, formats=_TEXT_JSON)

    p = sub.add_parser("sample", help="sample a random model on the graph")
    p.add_argument("graph")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample, formats=_TEXT)

    p = sub.add_parser("bound", help="bound a causal effect from data", parents=[fmt])
    p.add_argument("graph")
    p.add_argument("--data", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--mode", choices=MODES, default="maxoriented")
    p.set_defaults(func=_cmd_bound, formats=_TEXT_JSON)

    p = sub.add_parser("oracle", help="run the brute-force cross-checks on a graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_oracle, formats=_TEXT)

    return parser


def cli(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        _check_format(ns)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    try:
        return ns.func(ns)
    except TooLargeError as exc:
        sys.stderr.write(f"size cap: {exc}\n")
        return TOO_LARGE_EXIT
    except (GraphError, ParseError, ModelError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAILURE_EXIT


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
