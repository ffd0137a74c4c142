"""Command-line interface over the whole pipeline.

Exit codes: 0 success, 1 usage error, 2 validation or domain failure,
3 size cap exceeded.

The grammar is declared once, as data: `_GLOBAL_OPTIONS` and `_COMMANDS`.
`cli()` first reads argv with `_read_canonical`, a lean pass over that table
that accepts only the canonical form: the global options before the command,
the command's own options after it (`--format` only where the command writes
more than text), each option written exactly as `--name value` (or the bare
`--rules-only` flag) and at most once in its place, values converted by their
type function and checked against their choices, every required option
given, and exactly the command's positionals.  Anything else (no command,
`-h`, `--version`, `--name=value`, an abbreviated or unknown option, `--`, a
repeated option, a value or positional starting with `-`, a wrong number of
positionals, a failed type or choice check) goes to `argparse`, built from
the same table, so every help page, usage message and exit code is its own.
A valid command line neither imports nor builds `argparse`.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

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

if TYPE_CHECKING:
    import argparse

USAGE_EXIT = 1
FAILURE_EXIT = 2
TOO_LARGE_EXIT = 3


class _UsageError(Exception):
    pass


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
    """A base-10 integer that is at least `least`, or a ValueError whose
    message is the usage error's."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < least:
        raise ValueError(f"expected a {kind} integer, got {value}")
    return value


def _non_negative(text: str) -> int:
    """A type function: a base-10 integer that is at least 0."""
    return _at_least(text, 0, "non-negative")


def _positive(text: str) -> int:
    """A type function: a base-10 integer that is at least 1."""
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


class _Option:
    """A `--name` option: the type function and choices its value must pass,
    its default and help; a flag takes no value and is True when given.
    `dest` is the namespace attribute, as argparse names it."""

    __slots__ = ("name", "dest", "type", "choices", "default", "required", "help", "flag")

    def __init__(
        self,
        name: str,
        type: Callable[[str], int] | None = None,
        choices: tuple[str, ...] | None = None,
        default: object = None,
        required: bool = False,
        help: str | None = None,
        flag: bool = False,
    ) -> None:
        self.name, self.dest = name, name[2:].replace("-", "_")
        self.type, self.choices, self.default = type, choices, default
        self.required, self.help, self.flag = required, help, flag


class _Command:
    """A command: its handler, the formats it writes (`--format` may follow a
    command that writes more than text), its help, its positionals and its
    own options."""

    __slots__ = ("func", "formats", "help", "positionals", "options")

    def __init__(
        self,
        func: Callable[[SimpleNamespace], int],
        formats: tuple[str, ...],
        help: str,
        positionals: tuple[str, ...] = ("graph",),
        options: tuple[_Option, ...] = (),
    ) -> None:
        self.func, self.formats, self.help = func, formats, help
        self.positionals, self.options = positionals, options


#: `--format` before the command; a command that writes more than text takes
#: it after itself too, with no default, so an absent one keeps the first
_FORMAT = _Option(
    "--format", choices=_ALL_FORMATS, default="text", help="output format (default: text)"
)
_GLOBAL_OPTIONS = (
    _FORMAT,
    _Option("--seed", _non_negative, default=0, help="random seed"),
    _Option("--max-edges", _non_negative, default=MAX_EDGES, help="cap for class enumerations"),
)
_NODES = "comma-separated nodes"
_COMMANDS = {
    "validate": _Command(_cmd_validate, _ALL_FORMATS, "parse and validate a graph document"),
    "components": _Command(
        _cmd_components, _TEXT_JSON, "chain components in topological order"
    ),
    "sep": _Command(
        _cmd_sep, _TEXT_JSON, "test a separation query",
        options=(
            _Option("--x", required=True, help=_NODES),
            _Option("--y", required=True, help=_NODES),
            _Option("--z", default="", help=_NODES),
        ),
    ),
    "equiv": _Command(
        _cmd_equiv, _TEXT, "test Markov equivalence of two graphs", ("graph1", "graph2")
    ),
    "class": _Command(_cmd_class, _TEXT_JSON, "enumerate the equivalence class"),
    "eg": _Command(_cmd_eg, _ALL_FORMATS, "construct the essential graph"),
    "strong": _Command(
        _cmd_strong, _ALL_FORMATS, "label strong edges in the essential graph",
        options=(
            _Option(
                "--rules-only", default=False, flag=True,
                help="report only the labels found by the shortcut rules",
            ),
        ),
    ),
    "minmax": _Command(
        _cmd_minmax, _ALL_FORMATS, "minimally or maximally oriented members",
        options=(_Option("--mode", choices=("min", "max"), required=True),),
    ),
    "adjust": _Command(
        _cmd_adjust, _TEXT_JSON, "enumerate adjusting sets for a node",
        options=(
            _Option("--x", required=True),
            _Option("--mode", choices=MODES, default="maxoriented"),
        ),
    ),
    "sample": _Command(
        _cmd_sample, _TEXT, "sample a random model on the graph",
        options=(_Option("--n", _positive, required=True), _Option("--out", required=True)),
    ),
    "bound": _Command(
        _cmd_bound, _TEXT_JSON, "bound a causal effect from data",
        options=(
            _Option("--data", required=True),
            _Option("--x", required=True),
            _Option("--y", required=True),
            _Option("--mode", choices=MODES, default="maxoriented"),
        ),
    ),
    "oracle": _Command(_cmd_oracle, _TEXT, "run the brute-force cross-checks on a graph"),
}


#: what `_read_canonical` looks up, built once: the namespace before any
#: option is read, and the options before and after each command by name
_GLOBAL_DEFAULTS = {o.dest: o.default for o in _GLOBAL_OPTIONS}
_GLOBAL_READ = {o.name: o for o in _GLOBAL_OPTIONS}
_COMMAND_READ = {
    name: {o.name: o for o in ((_FORMAT,) if command.formats != _TEXT else ()) + command.options}
    for name, command in _COMMANDS.items()
}


def _read_canonical(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a canonical argv (the module
    docstring gives the rule), or None for any other argv."""
    values = dict(_GLOBAL_DEFAULTS)
    name, options, given, positionals = None, _GLOBAL_READ, set(), []
    i, end = 0, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            if name is not None:
                positionals.append(token)
            elif token in _COMMANDS:
                name, options, given = token, _COMMAND_READ[token], set()
            else:
                return None
            continue
        if token not in options or token in given:
            return None
        given.add(token)
        option = options[token]
        if option.flag:
            values[option.dest] = True
            continue
        if i == end or argv[i].startswith("-"):
            return None
        value = argv[i]
        i += 1
        if option.type is not None:
            try:
                value = option.type(value)
            except ValueError:
                return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if name is None:
        return None
    command = _COMMANDS[name]
    if len(positionals) != len(command.positionals):
        return None
    for option in command.options:
        if option.name not in given:
            if option.required:
                return None
            values[option.dest] = option.default
    values.update(zip(command.positionals, positionals))
    return SimpleNamespace(command=name, func=command.func, formats=command.formats, **values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the same table, built once per process and
    only for an argv `_read_canonical` declines; every parse makes a fresh
    namespace.  Handlers are bound in the table, so tests patch what the
    `_cmd_*` functions call, not the `_cmd_*` functions themselves."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # exit 1 instead of argparse's default 2
            raise _UsageError(message)

    def checked(convert: Callable[[str], int]) -> Callable[[str], int]:
        def typed(text: str) -> int:
            try:
                return convert(text)
            except ValueError as exc:  # argparse words its own message for a ValueError
                raise argparse.ArgumentTypeError(str(exc)) from None

        return typed

    def add(parser: argparse.ArgumentParser, option: _Option, default: object) -> None:
        if option.flag:
            parser.add_argument(option.name, action="store_true", help=option.help)
            return
        parser.add_argument(
            option.name,
            type=checked(option.type) if option.type else None,
            choices=option.choices,
            default=default,
            required=option.required,
            help=option.help,
        )

    # the help page's description is the docstring's first two paragraphs
    parser = _Parser(prog="ampcg", description="\n\n".join(__doc__.split("\n\n")[:2]))
    parser.add_argument("--version", action="version", version=f"ampcg {__version__}")
    for option in _GLOBAL_OPTIONS:
        add(parser, option, option.default)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.formats != _TEXT:
            # SUPPRESS keeps an absent one from resetting the value given before it
            add(p, _FORMAT, argparse.SUPPRESS)
        for positional in command.positionals:
            p.add_argument(positional)
        for option in command.options:
            add(p, option, option.default)
        p.set_defaults(func=command.func, formats=command.formats)
    return parser


def cli(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = _read_canonical(argv)
        if ns is None:
            ns = _build_parser().parse_args(argv)
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
    """The console script and `python -m ampcg.cli`: a closed stdout pipe
    ends the process by SIGPIPE, as it ends `cat`, where the platform has
    one; `cli()` leaves in-process callers' signal handling alone."""
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(cli())


if __name__ == "__main__":
    main()
