import csv
import json
import os
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ampcg import (
    ChainGraph,
    MarkedGraph,
    StrongLabeling,
    essential_graph,
    node_names,
    pair,
    parse_graph,
    random_chain_graph,
    random_model,
    read_dataset,
    sample,
    serialize_graph,
    strong_labeling,
    to_dot,
    to_json,
    write_dataset,
)
from ampcg import graphs, io_text
from ampcg.cli import _build_parser, _read_canonical, cli
from ampcg.errors import DuplicateEdgeError, GraphError, ParseError
from ampcg.gaussian import Dataset
from ampcg.io_text import graph_to_json

from .support import (
    cg,
    chain_graphs,
    graph_documents,
    marked_graphs,
    parse_graph_line_by_line,
    unmarked_skeleton,
    with_blocks,
)


@contextmanager
def fed_fifo(tmp_path, text):
    """The path of a FIFO that a thread writes `text` into once.  Should the
    reader open it again, the thread answers with end-of-file at once, so a
    second open fails the test instead of hanging it."""
    path = tmp_path / "data.fifo"
    os.mkfifo(path)
    done = threading.Event()

    def feed():
        with open(path, "w") as out:
            out.write(text)
        while not done.wait(0.01):
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader is waiting
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        done.set()
        writer.join(timeout=10)
    assert not writer.is_alive()


class TestParse:
    def test_mixed_document(self):
        g = parse_graph("edge A -> B\nedge C -> B\nedge C -- D\n")
        assert g == cg("ABCD", [("A", "B"), ("C", "B")], [("C", "D")])

    def test_isolated_node(self):
        g = parse_graph("node A\n")
        assert g.nodes == {"A"} and not g.skeleton

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\nnode A  # trailing\n")
        assert g.nodes == {"A"}

    def test_each_distinct_name_is_checked_once(self, monkeypatch):
        calls = 0
        check = graphs.is_valid_name

        def counted(name):
            nonlocal calls
            calls += 1
            return check(name)

        monkeypatch.setattr(graphs, "is_valid_name", counted)
        monkeypatch.setattr(io_text, "is_valid_name", counted)
        g = parse_graph("node A\nnode E\nedge A -> B\nedge C -> B\nedge C -- D\n")
        assert len(g.nodes) == 5 and calls == 5

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_graph("edge A -> B\nedge B -> A\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("node A\nedgy A -> B\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "document, kind, message",
        [
            (
                "edge A -> B\nedge B -- A\nnode C\nbogus X\n",
                DuplicateEdgeError, "line 2: more than one edge between 'A' and 'B'",
            ),
            (
                "bogus X\nedge A -> B\nedge B -- A\n",
                ParseError, "line 1: unknown statement 'bogus'",
            ),
            (
                "edge A -> A\nnode B\nedge B -> C-D\n",
                ParseError, "line 1: self-loop at 'A'",
            ),
            (
                "node B\nedge B -> C-D\nedge A -> A\n",
                ParseError, "line 2: invalid node name in 'edge B -> C-D'",
            ),
        ],
        ids=["doubled-before-unknown", "unknown-before-doubled", "loop-before-name",
             "name-before-loop"],
    )
    def test_the_first_faulty_line_wins_across_fault_kinds(self, document, kind, message):
        with pytest.raises(kind) as exc:
            parse_graph(document)
        assert type(exc.value) is kind and str(exc.value) == message

    @settings(max_examples=60, deadline=None)
    @given(chain_graphs())
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(graph_documents())
    def test_the_lean_pass_reads_as_the_line_by_line_reference(self, document):
        try:
            want = parse_graph_line_by_line(document)
        except (GraphError, ParseError) as exc:
            with pytest.raises(type(exc)) as got:
                parse_graph(document)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        g, masks = parse_graph(document), lambda h: (h.index.adj, h.index.pa, h.index.ne)
        assert g == want and g.sorted_nodes == want.sorted_nodes and masks(g) == masks(want)

    def test_only_a_rejected_document_is_read_again_line_by_line(self, monkeypatch):
        want = cg("ABC", [("A", "B")], [("B", "C")])
        calls = {"find": 0, "index": 0}
        find, build = io_text._first_faulty_line, graphs._graph_index

        def counted_find(text):
            calls["find"] += 1
            return find(text)

        def counted_build(*args):
            calls["index"] += 1
            return build(*args)

        monkeypatch.setattr(io_text, "_first_faulty_line", counted_find)
        # the parser's own call, and any later build of the graph's index
        monkeypatch.setattr(io_text, "_graph_index", counted_build)
        monkeypatch.setattr(graphs, "_graph_index", counted_build)
        g = parse_graph("# head\r\nnode\tA # tail\r\n\r\nedge A\t->\tB#glued\r\nedge C -- B\r\n")
        assert g == want and g.sorted_nodes == ("A", "B", "C") and g.index.ne[1] == 0b100
        assert calls == {"find": 0, "index": 1}
        with pytest.raises(ParseError, match="line 2: unknown statement 'bogus'"):
            parse_graph("edge A -> B\nbogus X\n")
        assert calls == {"find": 1, "index": 1}
        with pytest.raises(DuplicateEdgeError, match="line 2: more than one edge"):
            parse_graph("edge A -> B\nedge B -- A\n")
        assert calls == {"find": 2, "index": 2}


class TestExports:
    def test_dot_directed_edge(self):
        out = to_dot(cg("AB", [("A", "B")]))
        assert "A -> B;" in out

    def test_dot_marks_strong_edges(self):
        lab = strong_labeling(cg("ABCD", [("A", "C"), ("B", "C"), ("C", "D")]))
        out = to_dot(lab)
        assert any("C -> D [style=bold" in line for line in out.splitlines())

    def test_dot_empty_graph(self):
        out = to_dot(cg(""))
        assert out.startswith("digraph") and out.rstrip().endswith("}")

    def test_dot_quotes_keywords_and_digit_led_names(self):
        # DOT reads its keywords in any case, and an unquoted ID with a
        # leading digit must be a numeral
        g = parse_graph("node 12\nnode B\nedge node -> 1A\nedge graph -- Strict\n")
        assert to_dot(g).splitlines() == [
            "digraph g {",
            "  12;",
            '  "1A";',
            "  B;",
            '  "Strict";',
            '  "graph";',
            '  "node";',
            '  "node" -> "1A";',
            '  "Strict" -> "graph" [dir=none];',
            "}",
        ]

    def test_json_carries_marks_and_labels(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        doc = json.loads(to_json(essential_graph(g).marks))
        edge = next(e for e in doc["edges"] if e["u"] == "A")
        assert edge["blocked_u"] is True and edge["blocked_v"] is False
        assert set(edge) == {"u", "v", "blocked_u", "blocked_v"}
        lab_doc = json.loads(to_json(strong_labeling(g)))
        assert lab_doc["strong_directed"] == []



def _json_module_text(obj) -> str:
    """The `json` module's text of the reference dict: `graph_to_json` for a
    chain graph, plus the strong labels for a labeling, and each edge's end
    marks for a marked graph."""
    if isinstance(obj, MarkedGraph):
        blocked = obj.blocked
        doc = {
            "nodes": sorted(obj.nodes),
            "edges": [
                {"u": a, "v": b, "blocked_u": (a, b) in blocked, "blocked_v": (b, a) in blocked}
                for a, b in sorted(obj.skeleton)
            ],
        }
    elif isinstance(obj, StrongLabeling):
        doc = graph_to_json(obj.graph)
        doc["strong_directed"] = [list(e) for e in sorted(obj.strong_directed)]
        doc["strong_undirected"] = [list(e) for e in sorted(obj.strong_undirected)]
    else:
        doc = graph_to_json(obj)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(chain_graphs(max_nodes=6))
    def test_graph_documents_match_the_json_module(self, g):
        for obj in (g, essential_graph(g).marks, strong_labeling(g)):
            assert to_json(obj) == _json_module_text(obj)

    @settings(max_examples=100, deadline=None)
    @given(marked_graphs(max_nodes=5))
    def test_arbitrary_marks_match_the_json_module(self, m):
        assert to_json(m) == _json_module_text(m)

    def test_degenerate_and_escaped_documents_match_the_json_module(self):
        empty, lone, edge = cg([]), cg("A"), cg("AB", [], [("A", "B")])
        odd = ("a\"b", "\u00e9", "t\\n")
        docs = [empty, lone, edge]
        docs += [essential_graph(g).marks for g in docs] + [strong_labeling(g) for g in docs]
        docs += [
            ChainGraph(frozenset(odd), frozenset({odd[:2]}), frozenset({pair(*odd[1:])})),
            with_blocks(
                unmarked_skeleton(
                    ChainGraph(frozenset(odd), frozenset(), frozenset({pair(*odd[:2])}))
                ),
                {odd[1::-1]},
            ),
            StrongLabeling(
                ChainGraph(frozenset(odd), frozenset({odd[:2]}), frozenset()),
                frozenset({odd[:2]}),
                frozenset(),
            ),
        ]
        assert not strong_labeling(edge).strong_directed
        assert not strong_labeling(edge).strong_undirected
        for obj in docs:
            assert to_json(obj) == _json_module_text(obj)


class TestDatasets:
    def test_round_trip(self, tmp_path):
        g = cg("ABC", [("A", "B")], [("B", "C")])
        ds = sample(random_model(g, seed=1), 20, seed=2)
        path = tmp_path / "d.csv"
        write_dataset(ds, str(path))
        back = read_dataset(str(path))
        assert back.columns == ds.columns
        assert np.array_equal(back.rows, ds.rows)

    @pytest.mark.parametrize(
        "text, columns",
        [
            ("A,B\r\n0.5,1\r\n-2,3e-1\r\n", ("A", "B")),
            ("A,B\n0.5,1\n-2,3e-1", ("A", "B")),
            ("A,B\n0.5,1\n\n\n-2,3e-1\n", ("A", "B")),
            ('A,B\n"0.5",1\n-2,"3e-1"\n', ("A", "B")),
            # the header takes two physical lines, and numpy must skip both
            ('"A,\nx",B\n0.5,1\n-2,3e-1\n', ("A,\nx", "B")),
            ("A,B\r0.5,1\r-2,3e-1\r", ("A", "B")),
            ("A,B\n\n\n0.5,1\n-2,3e-1\n", ("A", "B")),
        ],
        ids=["crlf", "no-final-newline", "blank-lines", "quoted", "two-line-header", "cr-only",
             "blank-lines-after-header"],
    )
    def test_accepted_layouts(self, tmp_path, text, columns):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        ds = read_dataset(str(path))
        assert ds.columns == columns
        assert np.array_equal(ds.rows, [[0.5, 1.0], [-2.0, 0.3]])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_name_numpy_would_decompress_is_read_as_text(self, tmp_path, suffix):
        path = tmp_path / f"d.csv{suffix}"
        path.write_text("A,B\n0.5,1\n-2,3e-1\n")
        assert np.array_equal(read_dataset(str(path)).rows, [[0.5, 1.0], [-2.0, 0.3]])

    def test_a_name_that_reads_as_a_url_is_a_local_file(self, tmp_path, monkeypatch):
        def no_fetch(*args, **kwargs):
            raise AssertionError("a local dataset was fetched as a URL")

        monkeypatch.setattr("urllib.request.urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "d.csv").write_text("A,B\n0.5,1\n-2,3e-1\n")
        assert np.array_equal(
            read_dataset("http://host/d.csv").rows, [[0.5, 1.0], [-2.0, 0.3]]
        )

    def test_a_pipe_is_read_once_to_its_last_row(self):
        rows = np.random.default_rng(3).standard_normal((20_000, 3))
        text = "A,B,C\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)
        assert len(text) > 8192  # past the first buffer a second open would lose
        read_fd, write_fd = os.pipe()

        def write():
            with os.fdopen(write_fd, "w") as out:
                out.write(text)

        writer = threading.Thread(target=write)
        writer.start()
        tracemalloc.start()
        try:
            ds = read_dataset(f"/dev/fd/{read_fd}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            writer.join()
            os.close(read_fd)
        assert ds.columns == ("A", "B", "C")
        assert np.array_equal(ds.rows, rows)
        # the input is held once, as bytes: a str copy in a StringIO is ~5x
        assert peak < 3 * len(text)

    def test_a_fifo_names_the_line_of_its_first_bad_row(self, tmp_path):
        with fed_fifo(tmp_path, "C,D\n1,2\n3,x\n") as path:
            with pytest.raises(ParseError) as exc:
                read_dataset(path)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: non-numeric value 'x' in column 2"

    def test_read_peak_memory_stays_near_the_array(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((20_000, 10))
        path = tmp_path / "big.csv"
        write_dataset(Dataset(columns=tuple(f"V{i}" for i in range(10)), rows=rows), str(path))
        tracemalloc.start()
        try:
            back = read_dataset(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.rows, rows)
        # one Python float per value, as a row-by-row reader holds them, is ~6.8x
        assert peak < 3 * rows.nbytes

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.sampled_from(
                ["1", "-2.5", "3e1", "nan", "inf", ",", ",", "\n", "\n", "\r\n", "\r",
                 '"', '"1"', " ", "\t", "#", "x", "_", "\u0663", "."]
            ),
            max_size=16,
        ).map("".join),
        st.sampled_from(["A,B", '"A\nx",B']),
    )
    def test_every_rejection_names_its_line(self, tmp_path, body, header):
        path = tmp_path / "fuzz.csv"
        path.write_bytes((header + "\n" + body).encode())
        try:
            ds = read_dataset(str(path))
        except ParseError as exc:
            assert exc.line >= 1
            assert any(
                kind in str(exc)
                for kind in ("values under", "non-numeric", "non-finite", "no data rows")
            )
            return
        with open(path, newline="") as fh:
            rows = list(filter(None, csv.reader(fh)))[1:]
        assert np.array_equal(ds.rows, [[float(v) for v in row] for row in rows])


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("edge A -> B\nedge C -> B\nedge C -- D\n")
    return str(path)


# each command, with the flag that changes what it prints, its further
# arguments and the formats it writes; any other --format is a usage error
WRITES = [
    ("validate", [], "text json dot"),
    ("components", [], "text json"),
    ("sep", ["--x", "A", "--y", "D"], "text json"),
    ("equiv", ["GRAPH"], "text"),
    ("class", [], "text json"),
    ("eg", [], "text json dot"),
    ("strong", [], "text json dot"),
    ("strong --rules-only", [], "text json"),
    ("minmax --mode max", [], "text json dot"),
    ("minmax --mode min", [], "text json"),
    ("adjust", ["--x", "C"], "text json"),
    ("sample", ["--n", "50", "--out", "OUT"], "text"),
    ("bound", ["--data", "DATA", "--x", "C", "--y", "B"], "text json"),
    ("oracle", [], "text"),
]


def _argv(command, args, graph_file, tmp_path):
    name, *flags = command.split()
    files = {"GRAPH": graph_file, "OUT": str(tmp_path / "out.csv"),
             "DATA": str(tmp_path / "data.csv")}
    return [name, graph_file, *flags, *(files.get(a, a) for a in args)]


class TestCli:
    def test_validate_round_trip(self, graph_file, capsys):
        assert cli(["validate", graph_file]) == 0
        assert parse_graph(capsys.readouterr().out) == parse_graph(Path(graph_file).read_text())

    def test_usage_error_is_exit_one(self, capsys):
        assert cli(["no-such-command"]) == 1
        assert cli([]) == 1

    @pytest.mark.parametrize("flag", ["--max-edges", "--seed"])
    def test_negative_global_integer_is_a_usage_error(self, graph_file, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        for command in (["class"], ["sample", "--n", "5", "--out", str(out)]):
            assert cli([flag, "-1", command[0], graph_file, *command[1:]]) == 1
            assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_a_sample_count_below_one_is_a_usage_error(self, graph_file, tmp_path, capsys, count):
        out = tmp_path / "x.csv"
        assert cli(["sample", graph_file, "--n", count, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: argument --n: expected a positive integer, got {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["eg"], ["strong"], ["minmax", "--mode", "max"], ["minmax", "--mode", "min"]]
    )
    def test_format_before_or_after_the_subcommand(self, graph_file, capsys, command):
        # the subcommand's --format overrides the top-level one, and leaves it
        # alone when absent
        for fmt in ("text", "json", "dot"):
            if command[-1] == "min" and fmt == "dot":  # members print as a list
                assert cli(["--format", fmt, command[0], graph_file, *command[1:]]) == 1
                capsys.readouterr()
                continue
            assert cli(["--format", fmt, command[0], graph_file, *command[1:]]) == 0
            before = capsys.readouterr().out
            assert cli([command[0], "--format", fmt, graph_file, *command[1:]]) == 0
            assert capsys.readouterr().out == before
            assert cli([command[0], graph_file, *command[1:], "--format", fmt]) == 0
            assert capsys.readouterr().out == before
            assert cli(["--format", "text", command[0], graph_file, "--format", fmt,
                        *command[1:]]) == 0
            assert capsys.readouterr().out == before
        assert cli(["--format", "json", command[0], graph_file, *command[1:]]) == 0
        assert capsys.readouterr().out.startswith("{")

    @pytest.mark.parametrize(
        "command, args, writes, fmt",
        [
            pytest.param(command, args, writes, fmt, id=f"{command}-{fmt}")
            for command, args, writes in WRITES
            for fmt in ("json", "dot")
            if fmt not in writes.split()
        ],
    )
    def test_a_format_the_command_cannot_write_is_a_usage_error(
        self, graph_file, tmp_path, capsys, command, args, writes, fmt
    ):
        argv = _argv(command, args, graph_file, tmp_path)
        placements = [["--format", fmt, *argv]]
        if writes != "text":  # the command takes --format after it too
            placements.append([*argv, "--format", fmt])
        for full in placements:
            assert cli(full) == 1
            assert capsys.readouterr() == ("", f"usage error: {command} cannot write --format {fmt}\n")
        assert not (tmp_path / "out.csv").exists()

    def test_every_format_a_command_writes_is_accepted(self, graph_file, tmp_path, capsys):
        assert cli(["sample", graph_file, "--n", "50", "--out", str(tmp_path / "data.csv")]) == 0
        for command, args, writes in WRITES:
            argv = _argv(command, args, graph_file, tmp_path)
            for fmt in writes.split():
                assert cli(["--format", fmt, *argv]) == 0, (command, fmt)
                assert capsys.readouterr().out

    def test_zero_edge_cap_is_allowed(self, graph_file, capsys):
        assert cli(["--max-edges", "0", "class", graph_file]) == 3
        assert "cap of 0" in capsys.readouterr().err

    def test_validation_failure_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("edge A -> B\nedge B -- C\nedge C -> A\n")
        assert cli(["validate", str(path)]) == 2

    def test_size_cap_is_exit_three(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("\n".join(f"edge V{i} -- V{i+1}" for i in range(20)))
        assert cli(["class", str(path)]) == 3

    def test_components(self, graph_file, capsys):
        assert cli(["components", graph_file]) == 0
        assert capsys.readouterr().out.splitlines() == ["0: A", "1: C D", "2: B"]

    def test_sep(self, graph_file, capsys):
        assert cli(["sep", graph_file, "--x", "A", "--y", "D", "--z", "B"]) == 0
        assert capsys.readouterr().out.strip() == "connected"
        assert cli(["sep", graph_file, "--x", "A", "--y", "D"]) == 0
        assert capsys.readouterr().out.strip() == "separated"

    def test_equiv(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("edge A -> B\nedge C -> B\n")
        b.write_text("edge A -- B\nedge C -> B\n")
        assert cli(["equiv", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_class_lists_the_enumerated_members(self, tmp_path, capsys):
        # the merge/split closure is no way to list a class, only a check of
        # the enumeration (`ampcg oracle`)
        path = tmp_path / "ab.txt"
        path.write_text("edge A -- B\n")
        assert cli(["class", str(path)]) == 0
        assert capsys.readouterr().out.startswith("3 members\n")
        assert cli(["class", str(path), "--via", "merge-split"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: unrecognized arguments: --via")

    def test_eg_and_strong(self, graph_file, capsys):
        assert cli(["eg", graph_file]) == 0
        eg_text = capsys.readouterr().out
        assert "edge A -> B" in eg_text and "edge C -- D" in eg_text
        assert cli(["strong", graph_file]) == 0
        assert capsys.readouterr().out.strip() == "no strong edges"
        assert cli(["strong", graph_file, "--rules-only"]) == 0
        assert "no strong edges" in capsys.readouterr().out

    def test_strong_dot_styles_strong_edges(self, tmp_path, capsys):
        path = tmp_path / "s1.txt"
        path.write_text("edge A -> C\nedge B -> C\nedge C -> D\n")
        assert cli(["--format", "dot", "strong", str(path)]) == 0
        out = capsys.readouterr().out
        assert "C -> D [style=bold" in out and "A -> C [style" not in out

    def test_strong_dot_styles_strong_undirected_edges(self, tmp_path, capsys):
        path = tmp_path / "cycle.txt"
        path.write_text(
            "edge A -- B\nedge B -- C\nedge C -- D\nedge A -- D\nedge E -> F\nedge G -> F\n"
        )
        assert cli(["--format", "dot", "strong", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert '  A -> B [dir=none, style=bold, color="#b22222"];' in lines

    def test_rules_only_prints_the_rule_labels(self, tmp_path, capsys):
        # the README quick-start graph: S1 alone labels C -> D
        path = tmp_path / "quick.txt"
        path.write_text("edge A -> C\nedge B -> C\nedge C -> D\nedge D -> E\n")
        assert cli(["strong", str(path), "--rules-only"]) == 0
        assert capsys.readouterr().out == "C -> D strong\n"

    def test_minmax(self, graph_file, capsys):
        assert cli(["minmax", graph_file, "--mode", "min"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("2 minimally oriented members")
        assert cli(["minmax", graph_file, "--mode", "max"]) == 0
        assert "edge" in capsys.readouterr().out

    def test_member_lists(self, tmp_path, capsys):
        path = tmp_path / "flag.txt"
        path.write_text("edge A -> B\nedge B -- C\n")
        flag = "node A; node B; node C; edge A -> B; edge B -- C"
        collider = "node A; node B; node C; edge A -> B; edge C -> B"
        mirror = "node A; node B; node C; edge A -- B; edge C -> B"

        def member(*edges):
            return {
                "edges": [{"kind": k, "u": u, "v": v} for k, u, v in edges],
                "nodes": ["A", "B", "C"],
            }

        members = [
            member(("directed", "A", "B"), ("undirected", "B", "C")),
            member(("directed", "A", "B"), ("directed", "C", "B")),
            member(("directed", "C", "B"), ("undirected", "A", "B")),
        ]
        cases = [
            (
                ["class", str(path)],
                f"3 members\n{flag}\n{collider}\n{mirror}\n",
                {"members": members, "size": 3},
            ),
            (
                ["minmax", str(path), "--mode", "min"],
                f"2 minimally oriented members\n{flag}\n{mirror}\n",
                {"minimally_oriented": [members[0], members[2]]},
            ),
        ]
        for argv, text, doc in cases:
            assert cli(argv) == 0
            assert capsys.readouterr().out == text
            assert cli(["--format", "json", *argv]) == 0
            assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_adjust(self, graph_file, capsys):
        assert cli(["adjust", graph_file, "--x", "C", "--mode", "superset"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8

    def test_sample_and_bound_deterministic(self, graph_file, tmp_path, capsys):
        out1 = tmp_path / "d1.csv"
        out2 = tmp_path / "d2.csv"
        assert cli(["--seed", "3", "sample", graph_file, "--n", "50", "--out", str(out1)]) == 0
        capsys.readouterr()
        assert cli(["--seed", "3", "sample", graph_file, "--n", "50", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert (
            cli(
                ["bound", graph_file, "--data", str(out1),
                 "--x", "C", "--y", "B", "--mode", "maxoriented"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bounds: [" in out

    def test_empty_dataset_is_exit_two(self, graph_file, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert cli(["bound", graph_file, "--data", str(data), "--x", "C", "--y", "B"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: empty dataset\n"

    def test_one_row_dataset_is_exit_two(self, graph_file, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("A,B,C,D\n0.5,1.0,-0.25,2.0\n")
        argv = ["bound", graph_file, "--data", str(data), "--x", "C", "--y", "B"]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: a sample covariance needs at least two rows, got 1\n"

    def test_non_finite_dataset_is_exit_two(self, graph_file, tmp_path, capsys):
        for row, message in [
            ("0.1,0.2,nan,0.4", "non-finite value in column 3"),
            ("0.1,0.2,0.3,inf", "non-finite value in column 4"),
            ("0.1,abc,0.3,0.4", "non-numeric value 'abc' in column 2"),
            ("0.1,# note,0.3,0.4", "non-numeric value '# note' in column 2"),
            ("0.1,0.2,1_000,0.4", "non-numeric value '1_000' in column 3"),
            ("\n\n0.1,abc,0.3,0.4", "non-numeric value 'abc' in column 2"),
        ]:
            data = tmp_path / "bad.csv"
            data.write_text(f"A,B,C,D\n0.5,1.0,-0.25,2.0\n{row}\n1,2,3,4\n")
            argv = ["bound", graph_file, "--data", str(data), "--x", "C", "--y", "B"]
            assert cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: line 3: {message}\n"

    def test_a_bad_dataset_fifo_reads_as_the_regular_file(self, graph_file, tmp_path, capsys):
        text = "C,D\n1,2\n3,x\n"
        data = tmp_path / "bad.csv"
        data.write_text(text)
        argv = ["bound", graph_file, "--x", "C", "--y", "D", "--data"]
        assert cli([*argv, str(data)]) == 2
        regular = capsys.readouterr()
        with fed_fifo(tmp_path, text) as path:
            assert cli([*argv, path]) == 2
        assert capsys.readouterr() == regular
        assert regular.err == "error: line 3: non-numeric value 'x' in column 2\n"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("A,B,C\n0.5,1.0,-0.25,2.0\n0.1,0.2,0.3,0.4\n", 2),  # wider than the header
            ("A,B,C,D\n0.5,1.0,-0.25,2.0\n0.1,0.2,0.3\n", 3),  # ragged
            ("A,B,C,D\n", 2),  # no rows at all
            # fields past the csv module's size limit
            ("A,B,C," + "x" * 200_000 + "\n1,2,3,4\n", 1),
            ("A,B,C,D\n1,2," + "x" * 200_000 + ",4\n0.5,1.0,-0.25,2.0\n", 2),
        ],
        ids=["wide", "ragged", "header-only", "long-header", "long-value"],
    )
    def test_row_width_mismatch_is_exit_two(self, graph_file, tmp_path, capsys, text, line):
        data = tmp_path / "ragged.csv"
        data.write_text(text)
        argv = ["bound", graph_file, "--data", str(data), "--x", "C", "--y", "B"]
        assert cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")

    @pytest.mark.parametrize("header", ["A,B,C", "A,B,C,D,E", "A,B,C,D,D"])
    def test_dataset_columns_must_match_the_graph(self, graph_file, tmp_path, capsys, header):
        width = header.count(",") + 1
        rows = [",".join(str(i * width + j) for j in range(width)) for i in range(5)]
        data = tmp_path / "cols.csv"
        data.write_text("\n".join([header] + rows) + "\n")
        argv = ["bound", graph_file, "--data", str(data), "--x", "C", "--y", "B"]
        assert cli(argv) == 2
        assert capsys.readouterr().err.startswith("error: dataset columns")

    def test_parser_is_built_once_and_keeps_no_state(self, graph_file, tmp_path, capsys):
        assert cli(["--format", "json", "eg", graph_file]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == ["A", "B", "C", "D"]
        assert cli(["eg", graph_file]) == 0
        assert capsys.readouterr().out.startswith("node A\n")
        seeded, unseeded, seed0 = (tmp_path / f"{name}.csv" for name in ("s3", "s", "s0"))
        for argv in (
            ["--seed", "3", "sample", graph_file, "--n", "20", "--out", str(seeded)],
            ["sample", graph_file, "--n", "20", "--out", str(unseeded)],
            ["--seed", "0", "sample", graph_file, "--n", "20", "--out", str(seed0)],
        ):
            assert cli(argv) == 0
        assert unseeded.read_bytes() == seed0.read_bytes() != seeded.read_bytes()
        # a valid command line builds no parser; a usage error builds it once
        _build_parser.cache_clear()
        assert cli(["eg", graph_file]) == 0
        assert cli(["--seed", "3", "sample", graph_file, "--n", "20", "--out", str(seeded)]) == 0
        assert _build_parser.cache_info().misses == 0
        capsys.readouterr()
        for _ in range(2):
            assert cli(["eg", graph_file, "--seed", "3"]) == 1
            assert capsys.readouterr().err == "usage error: unrecognized arguments: --seed 3\n"
        assert _build_parser.cache_info().misses == 1

    def test_json_format(self, graph_file, capsys):
        assert cli(["--format", "json", "eg", graph_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"nodes", "edges"} <= set(doc)

    def test_oracle_all_pass(self, graph_file, capsys):
        assert cli(["oracle", graph_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") >= 6

    def test_oracle_reports_an_unsound_shortcut_as_a_failed_check(
        self, graph_file, capsys, monkeypatch
    ):
        monkeypatch.setattr("ampcg.strong._s3", lambda m: {("A", "B")})
        assert cli(["oracle", graph_file]) == 2
        captured = capsys.readouterr()
        row = next(
            line for line in captured.out.splitlines() if "rule shortcut is sound" in line
        )
        assert row.endswith("FAIL")
        assert "shortcut labels" in captured.err


# the README's command lines, with the graph, data and output files as
# placeholders
README_EXAMPLES = [
    "validate GRAPH",
    "components GRAPH",
    "sep GRAPH --x A --y D --z B",
    "equiv GRAPH GRAPH",
    "class GRAPH",
    "eg GRAPH",
    "strong GRAPH",
    "strong GRAPH --rules-only",
    "minmax GRAPH --mode min",
    "minmax GRAPH --mode max",
    "adjust GRAPH --x C --mode maxoriented",
    "--seed 1 sample GRAPH --n 1000 --out OUT",
    "bound GRAPH --data DATA --x C --y B --mode class",
    "oracle GRAPH",
    "eg GRAPH --format json",
]

# the argument shapes of the four bench workloads
BENCH_SHAPES = [
    "--format json strong GRAPH",
    "--format json eg GRAPH",
    "minmax GRAPH --mode max",
    "--format json bound GRAPH --data DATA --x V1 --y V4 --mode maxoriented",
]


def _canonical_argvs():
    """Every WRITES row in every format it writes, with --format before the
    command and (where it takes one) after it, with and without the other
    global options; then the README examples and the bench shapes."""
    argvs = []
    for command, args, writes in WRITES:
        argv = _argv(command, args, "GRAPH", Path("TMP"))
        argvs += [argv, ["--seed", "3", "--max-edges", "10", *argv]]
        for fmt in writes.split():
            argvs.append(["--format", fmt, *argv])
            if writes != "text":
                argvs.append([*argv, "--format", fmt])
    return argvs + [line.split() for line in README_EXAMPLES + BENCH_SHAPES]


# what a mutation draws from: command and option names, abbreviations,
# `=` forms, help, version and `--`, and values good and bad
VOCABULARY = [
    *(command.split()[0] for command, _, _ in WRITES), "no-such",
    "--format", "--seed", "--max-edges", "--x", "--y", "--z", "--mode", "--n",
    "--out", "--data", "--rules-only", "--via",
    "--mod", "--form", "--max", "--rules", "--da", "--seed=1", "--format=json",
    "--mode=max", "--x=A", "-h", "--help", "--version", "--", "-", "-x",
    "json", "text", "dot", "xml", "min", "max", "maxoriented", "class", "superset",
    "A", "B", "C", "D", "0", "1", "3", "-1", "0x1", "1.5", "x", "", " ", "GRAPH",
]


def _mutated(rng, argv):
    """`argv` after one to three random insertions, deletions, replacements,
    swaps or repeats."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        at = rng.randrange(len(argv) + 1)
        if kind == 0:
            argv.insert(at, rng.choice(VOCABULARY))
        elif argv and kind == 1:
            del argv[min(at, len(argv) - 1)]
        elif argv and kind == 2:
            argv[min(at, len(argv) - 1)] = rng.choice(VOCABULARY)
        elif len(argv) > 1 and kind == 3:
            i, j = rng.sample(range(len(argv)), 2)
            argv[i], argv[j] = argv[j], argv[i]
        elif argv:
            i = min(at, len(argv) - 2)
            argv[i:i] = argv[i:i + 2]
    return argv


class TestCommandLineReader:
    def test_every_canonical_argv_is_read_as_argparse_reads_it(self):
        canonical = _canonical_argvs()
        assert len(canonical) == 102
        for argv in canonical:
            ns = _read_canonical(argv)
            assert ns is not None, argv
            assert vars(ns) == vars(_build_parser().parse_args(argv)), argv

    def test_whatever_the_reader_accepts_argparse_reads_the_same(self, capsys):
        rng = random.Random(55)
        canonical = _canonical_argvs()
        corpus = [_mutated(rng, rng.choice(canonical)) for _ in range(20_000)]
        corpus += [rng.choices(VOCABULARY, k=rng.randint(0, 8)) for _ in range(20_000)]
        accepted = 0
        for argv in corpus:
            ns = _read_canonical(argv)
            if ns is None:
                continue
            accepted += 1
            assert vars(ns) == vars(_build_parser().parse_args(argv)), argv
        assert capsys.readouterr() == ("", "")
        # the corpus reaches both sides of the rule
        assert 500 < accepted < len(corpus) - 500

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--version"],
            ["minmax", "GRAPH", "--mode=max"],
            ["minmax", "GRAPH", "--mod", "max"],
            ["--form", "text", "eg", "GRAPH"],
            ["minmax", "GRAPH", "--mode", "max", "--mode", "min"],
            ["minmax", "--mode", "max", "--", "GRAPH"],
            ["eg", "GRAPH", "--seed", "3"],
            ["equiv", "GRAPH", "GRAPH", "--format", "text"],
            ["sample", "GRAPH", "--n", "5", "--out", "OUT", "--format", "text"],
            ["--seed", "-1", "eg", "GRAPH"],
            ["--seed", "x", "eg", "GRAPH"],
            ["sample", "GRAPH", "--n", "0", "--out", "OUT"],
            ["minmax", "GRAPH", "--mode", "mid"],
            ["minmax", "GRAPH"],
            ["eg"],
            ["eg", "GRAPH", "GRAPH"],
            ["eg", "-1"],
            ["sep", "GRAPH", "--x", "-A", "--y", "B"],
            ["strong", "GRAPH", "--rules-only", "--rules-only"],
        ],
    )
    def test_anything_else_goes_to_argparse(self, argv):
        assert _read_canonical(argv) is None

    @pytest.mark.parametrize(
        "argv, canonical",
        [
            (["minmax", "G", "--mod", "max"], ["minmax", "G", "--mode", "max"]),
            (["eg", "G", "--form", "text"], ["eg", "G", "--format", "text"]),
            (["minmax", "G", "--mode=max"], ["minmax", "G", "--mode", "max"]),
            (["eg", "G", "--format=json"], ["eg", "G", "--format", "json"]),
            (["minmax", "G", "--mode", "min", "--mode", "max"], ["minmax", "G", "--mode", "max"]),
            (["minmax", "--mode", "max", "--", "G"], ["minmax", "G", "--mode", "max"]),
        ],
    )
    def test_the_fallback_reads_the_other_forms(self, graph_file, capsys, argv, canonical):
        def run(argv):
            assert cli([graph_file if a == "G" else a for a in argv]) == 0
            return capsys.readouterr()

        assert _read_canonical(argv) is None
        assert run(argv) == run(canonical)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "ampcg 0.1.0\n"

    @pytest.mark.parametrize("argv", [["-h"], ["minmax", "-h"]])
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ampcg")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_stdout_pipe_ends_the_command_by_sigpipe(tmp_path):
    # 352 926 bytes of output, more than a pipe holds, so the writer is still
    # writing when the reader closes its end
    graph = tmp_path / "g4000.txt"
    graph.write_text(
        serialize_graph(random_chain_graph(random.Random(1), node_names(4000), .002, .002))
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ampcg.cli", "validate", str(graph)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"node V0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""
