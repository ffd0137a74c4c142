import csv
import json
import tracemalloc
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
    pair,
    parse_graph,
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
from ampcg.cli import _build_parser, cli
from ampcg.errors import DuplicateEdgeError, ParseError
from ampcg.gaussian import Dataset
from ampcg.io_text import graph_to_json

from .support import cg, chain_graphs, marked_graphs


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

    def test_each_name_token_is_checked_once(self, monkeypatch):
        calls = 0
        check = graphs.is_valid_name

        def counted(name):
            nonlocal calls
            calls += 1
            return check(name)

        monkeypatch.setattr(graphs, "is_valid_name", counted)
        monkeypatch.setattr(io_text, "is_valid_name", counted)
        g = parse_graph("node A\nnode E\nedge A -> B\nedge C -> B\nedge C -- D\n")
        assert len(g.nodes) == 5 and calls == 8

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_graph("edge A -> B\nedge B -> A\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("node A\nedgy A -> B\n")
        assert exc.value.line == 2

    @settings(max_examples=60, deadline=None)
    @given(chain_graphs())
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g


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

    def test_json_carries_marks_and_labels(self):
        g = cg("ABC", [("A", "B"), ("C", "B")])
        doc = json.loads(to_json(essential_graph(g).marks))
        edge = next(e for e in doc["edges"] if e["u"] == "A")
        assert edge["blocked_u"] is True and edge["blocked_v"] is False
        assert set(edge) == {"u", "v", "blocked_u", "blocked_v"}
        lab_doc = json.loads(to_json(strong_labeling(g)))
        assert lab_doc["strong_directed"] == []



def _json_module_text(obj) -> str:
    return json.dumps(graph_to_json(obj), indent=2, sort_keys=True) + "\n"


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
            MarkedGraph(frozenset(odd), frozenset({odd[:2]}), frozenset({odd[1::-1]})),
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
        "text",
        [
            "A,B\r\n0.5,1\r\n-2,3e-1\r\n",
            "A,B\n0.5,1\n-2,3e-1",
            "A,B\n0.5,1\n\n\n-2,3e-1\n",
            'A,B\n"0.5",1\n-2,"3e-1"\n',
        ],
        ids=["crlf", "no-final-newline", "blank-lines", "quoted"],
    )
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        ds = read_dataset(str(path))
        assert ds.columns == ("A", "B")
        assert np.array_equal(ds.rows, [[0.5, 1.0], [-2.0, 0.3]])

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
        ).map("".join)
    )
    def test_every_rejection_names_its_line(self, tmp_path, body):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(("A,B\n" + body).encode())
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


class TestCli:
    def test_validate_round_trip(self, graph_file, capsys):
        assert cli(["validate", graph_file]) == 0
        assert parse_graph(capsys.readouterr().out) == parse_graph(Path(graph_file).read_text())

    def test_usage_error_is_exit_one(self, capsys):
        assert cli(["no-such-command"]) == 1
        assert cli([]) == 1

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

    def test_class_modes_agree(self, tmp_path, capsys):
        path = tmp_path / "ab.txt"
        path.write_text("edge A -- B\n")
        assert cli(["class", str(path)]) == 0
        brute = capsys.readouterr().out
        assert cli(["class", str(path), "--via", "merge-split"]) == 0
        assert capsys.readouterr().out == brute
        assert brute.startswith("3 members")

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

    def test_one_row_dataset_is_exit_two(self, graph_file, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("A,B,C,D\n0.5,1.0,-0.25,2.0\n")
        argv = ["bound", graph_file, "--data", str(data), "--x", "C", "--y", "B"]
        assert cli(argv) == 2
        assert capsys.readouterr().err.startswith("error: collinear regression columns")

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
        assert _build_parser.cache_info().misses <= 1

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
        monkeypatch.setattr("ampcg.strong._s1", lambda m: {("A", "B")})
        assert cli(["oracle", graph_file]) == 2
        captured = capsys.readouterr()
        row = next(
            line for line in captured.out.splitlines() if "rule shortcut is sound" in line
        )
        assert row.endswith("FAIL")
        assert "shortcut labels" in captured.err
