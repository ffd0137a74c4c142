"""Plain-text graph documents, DOT and JSON export, CSV datasets.

Graph documents are one statement per line: `node NAME`, `edge A -> B`,
`edge A -- B`, with `#` comments and blank lines ignored.  Nodes may be
declared implicitly through edges.  Serialization is canonical, so
parse(serialize(g)) == g.
"""

from __future__ import annotations

import csv
import io
import os
import stat
import warnings
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, TextIO

from .errors import DuplicateEdgeError, GraphError, InvariantViolationError, ParseError
from .essential import MarkedGraph
from .graphs import ChainGraph, NodeId, _edges, _graph_index, _positions, is_valid_name, pair
from .strong import StrongLabeling

if TYPE_CHECKING:
    from .gaussian import Dataset


def parse_graph(text: str) -> ChainGraph:
    """Parse a graph document into a validated chain graph.

    One lean pass sorts each line by its token count and keyword, checks
    each distinct name once and hands the edge lists to `_graph_index`,
    which rejects self-loops and doubled pairs as it builds the graph's
    index; `ChainGraph._of` then runs only the cycle test.  Any rejection
    re-reads the text line by line (`_first_faulty_line`), so every error
    names the first faulty line, and a semidirected cycle is reported only
    when no line is faulty.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    declared: list[NodeId] = []
    directed: list[tuple[NodeId, NodeId]] = []
    undirected: list[tuple[NodeId, NodeId]] = []
    for line in lines:
        tokens = line.split()
        if len(tokens) == 4 and tokens[0] == "edge":
            _, a, op, b = tokens
            if op == "->":
                directed.append((a, b))
            elif op == "--":
                undirected.append((a, b) if a <= b else (b, a))
            else:
                raise _first_faulty_line(text)
        elif len(tokens) == 2 and tokens[0] == "node":
            declared.append(tokens[1])
        elif tokens:
            raise _first_faulty_line(text)
    nodes = set(declared).union(*directed, *undirected)
    if not all(map(is_valid_name, nodes)):
        raise _first_faulty_line(text)
    try:
        index = _graph_index(nodes, directed, undirected)
    except GraphError:
        raise _first_faulty_line(text) from None
    return ChainGraph._of(index)


def _first_faulty_line(text: str) -> Exception:
    """The error of the first line of `text` that `parse_graph` rejects,
    read line by line: a malformed statement, an invalid name, a self-loop
    or a second edge between one pair."""
    seen_pairs: set[tuple[NodeId, NodeId]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "edge":
            if len(tokens) != 4 or tokens[2] not in ("->", "--"):
                return ParseError(
                    lineno, f"expected 'edge A -> B' or 'edge A -- B', got {raw.strip()!r}"
                )
            _, a, _, b = tokens
            if not (is_valid_name(a) and is_valid_name(b)):
                return ParseError(lineno, f"invalid node name in {raw.strip()!r}")
            if a == b:
                return ParseError(lineno, f"self-loop at {a!r}")
            key = pair(a, b)
            if key in seen_pairs:
                return DuplicateEdgeError(
                    f"line {lineno}: more than one edge between {key[0]!r} and {key[1]!r}"
                )
            seen_pairs.add(key)
        elif kind == "node":
            if len(tokens) != 2 or not is_valid_name(tokens[1]):
                return ParseError(lineno, f"expected 'node NAME', got {raw.strip()!r}")
        else:
            return ParseError(lineno, f"unknown statement {kind!r}")
    return InvariantViolationError("parse_graph rejected a document with no faulty line")


def serialize_graph(g: ChainGraph) -> str:
    """Canonical text form: sorted node lines, then the edge lines in sorted
    pair order, read off the masks."""
    names, pa = g.index.nodes, g.index.pa
    lines = [f"node {n}" for n in names]
    for i, w in _edges(g.index.adj):
        if pa[w] >> i & 1:
            lines.append(f"edge {names[i]} -> {names[w]}")
        elif pa[i] >> w & 1:
            lines.append(f"edge {names[w]} -> {names[i]}")
        else:
            lines.append(f"edge {names[i]} -- {names[w]}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: ChainGraph) -> dict[str, Any]:
    """JSON-ready dict of the nodes and the edges, each edge with its kind."""
    edges = [{"u": u, "v": v, "kind": "directed"} for u, v in sorted(g.directed)]
    edges += [{"u": a, "v": b, "kind": "undirected"} for a, b in sorted(g.undirected)]
    return {"nodes": list(g.sorted_nodes), "edges": edges}


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as `json.dumps(indent=2)`
    lays it out at `indent`."""
    if not items:
        return "[]"
    pad = "\n" + indent + "  "
    return "[" + pad + ("," + pad).join(items) + "\n" + indent + "]"


_BOOL = ("false", "true")
_FIELD = ",\n      "  # between the fields of an edge object


def to_json(obj: ChainGraph | MarkedGraph | StrongLabeling) -> str:
    """The document `json.dumps(doc, indent=2, sort_keys=True)` writes, plus
    a newline, for `graph_to_json`'s dict, with each edge's end marks on a
    marked graph or the strong labels added on a labeling; written directly:
    the indenting encoder of `json` is pure Python.  Each node name is
    encoded once, and every edge end reuses its string."""
    q = encode_basestring_ascii
    if isinstance(obj, MarkedGraph):
        out = obj.out
        names = list(map(q, obj.index.nodes))
        edges = [
            f'{{\n      "blocked_u": {_BOOL[out[i] >> w & 1]}{_FIELD}'
            f'"blocked_v": {_BOOL[out[w] >> i & 1]}{_FIELD}'
            f'"u": {names[i]}{_FIELD}"v": {names[w]}\n    }}'
            for i, w in _edges(obj.index.adj)
        ]
    else:
        index = (obj.graph if isinstance(obj, StrongLabeling) else obj).index
        names = list(map(q, index.nodes))
        kinds = ((_positions(index.ch), '"directed"'), (_edges(index.ne), '"undirected"'))
        edges = [
            f'{{\n      "kind": {kind}{_FIELD}"u": {names[i]}{_FIELD}"v": {names[w]}\n    }}'
            for found, kind in kinds
            for i, w in found
        ]
    doc = f'{{\n  "edges": {_json_array(edges, "  ")},\n  "nodes": {_json_array(names, "  ")}'
    if isinstance(obj, StrongLabeling):
        quoted = dict(zip(index.nodes, names))
        for key, pairs in (
            ("strong_directed", obj.strong_directed),
            ("strong_undirected", obj.strong_undirected),
        ):
            items = [_json_array([quoted[u], quoted[v]], "    ") for u, v in sorted(pairs)]
            doc += f',\n  "{key}": {_json_array(items, "  ")}'
    return doc + "\n}\n"


_STRONG_STYLE = 'style=bold, color="#b22222"'

#: the DOT keywords, which DOT reads in any case
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_id(name: NodeId) -> str:
    """A node name as a DOT ID: quoted when DOT would read it as a keyword,
    or as a numeral and a second ID (a leading digit with a non-digit after
    it); every other valid name is a DOT ID as it stands."""
    if name.lower() in _DOT_KEYWORDS or (name[:1].isdigit() and not name.isdigit()):
        return f'"{name}"'
    return name


def to_dot(obj: ChainGraph | StrongLabeling) -> str:
    """DOT document; undirected edges suppress their direction, strong edges
    are bold and colored."""
    if isinstance(obj, StrongLabeling):
        g = obj.graph
        strong_dir = obj.strong_directed
        strong_und = obj.strong_undirected
    else:
        g = obj
        strong_dir = frozenset()
        strong_und = frozenset()
    lines = ["digraph g {"]
    for n in g.sorted_nodes:
        lines.append(f"  {_dot_id(n)};")
    for u, v in sorted(g.directed):
        attrs = [_STRONG_STYLE] if (u, v) in strong_dir else []
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(u)} -> {_dot_id(v)}{suffix};")
    for a, b in sorted(g.undirected):
        attrs = ["dir=none"]
        if (a, b) in strong_und:
            attrs.append(_STRONG_STYLE)
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dataset(ds: Dataset, path: str) -> None:
    """CSV with a header of node names and one observation per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.columns)
        for row in ds.rows:
            writer.writerow([format(v, ".17g") for v in row])


def _is_number(text: str) -> bool:
    """Whether `np.loadtxt` reads `text` as a float: Python's float syntax
    after stripping whitespace, but ASCII only and without underscores."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_bad_row(rows: TextIO) -> ParseError | None:
    """Read the dataset stream `rows` row by row, from its header on, and
    name the first row numpy rejected."""
    with rows as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        line = 1
        try:
            for line, row in enumerate(filter(None, reader), start=2):
                if len(row) != width:
                    return ParseError(line, f"{len(row)} values under {width} column names")
                for col, v in enumerate(row, 1):
                    if not _is_number(v):
                        return ParseError(line, f"non-numeric value {v!r} in column {col}")
        except csv.Error as exc:  # the row after `line` is malformed
            return ParseError(line + 1, str(exc))
    return None


#: the suffixes by which `np.loadtxt` decompresses a path
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def read_dataset(path: str) -> Dataset:
    """Read a CSV written by `write_dataset`; every row must be as wide as
    the header and every value a finite number.

    Numbers are read as `np.loadtxt` reads them: quoted numbers are
    accepted, `#` starts no comment, and `1_000`-style literals are
    rejected.  Blank lines are skipped; the line number in an error counts
    the header and the non-blank rows only.

    `csv` reads the header; `np.loadtxt` is then given the path, not the
    open file, because numpy parses a path in C chunks but walks a file
    object one Python line at a time.  Its `skiprows` is the header's
    physical line count, 2 when a quoted name holds a newline.  A relative
    path gets a leading `./`, as numpy would fetch a name that reads as a
    URL.  Only a regular file is opened more than once: a pipe or FIFO
    (`--data <(zcat d.csv.gz)`, `/dev/stdin`) cannot be read again, and a
    name numpy would decompress by its suffix would not be read as text, so
    the bytes of both are read once and held; the header, numpy and the row
    scan of a rejected file read them through one text stream.  numpy is
    imported here, not with the module, so the graph commands never load it.
    """
    import numpy as np

    from .gaussian import Dataset

    with open(path, newline="") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if regular and not os.fspath(path).endswith(_COMPRESSED):
            rows = fh
        else:  # held as bytes, which decode as the open file decodes them
            rows = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), fh.encoding, newline="")
        reader = csv.reader(rows)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty dataset") from None
        except csv.Error as exc:
            raise ParseError(1, str(exc)) from None
        if rows is fh:
            source, skip = os.path.join(os.curdir, path), reader.line_num
        else:
            source, skip = rows, 0
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(
                    source, skiprows=skip, delimiter=",", ndmin=2, dtype=float,
                    comments=None, quotechar='"',
                )
        except ValueError:
            values = None
    if values is None or (len(values) and values.shape[1] != len(header)):
        # `_is_number` matches numpy 2.4's reader; should another numpy reject
        # a row the scan accepts, the fallback keeps the ParseError exit
        if rows is fh:
            rows = open(path, newline="")
        else:
            rows.seek(0)
        raise _first_bad_row(rows) or ParseError(2, "unreadable data rows")
    if not len(values):
        raise ParseError(2, "no data rows under the header")
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ParseError(int(r) + 2, f"non-finite value in column {int(c) + 1}")
    return Dataset(columns=tuple(header), rows=values)
