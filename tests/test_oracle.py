"""The oracle module's place in the package: loaded only when an oracle runs,
re-exported lazily, refusing past one set of caps, and building each class
once per `ampcg oracle`."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ampcg
from ampcg import (
    enumerate_adjusting_sets,
    essential_graph,
    graphs,
    node_names,
    oracle,
    random_chain_graph,
    serialize_graph,
)
from ampcg.cli import cli
from ampcg.errors import MAXORIENTED_CAP, SUPERSET_CAP, TooLargeError

from .support import cg

ROOT = Path(__file__).resolve().parent.parent

# Runs the pipeline commands in one process and reports whether numpy has been
# imported after the graph commands and after `sample` and `bound`, then
# whether `ampcg.oracle` has been, before and after one oracle command, and
# last whether `argparse` has been, which a valid command line never needs.
_LAZY_SCRIPT = """
import contextlib, io, sys
from ampcg.cli import cli

graph, data = sys.argv[1:]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli(list(argv)) == 0, argv

run("validate", graph)
run("components", graph)
run("sep", graph, "--x", "A", "--y", "D", "--z", "C")
run("equiv", graph, graph)
run("eg", graph)
run("--format", "json", "eg", graph)
run("strong", graph)
run("minmax", graph, "--mode", "max")
run("adjust", graph, "--x", "C")
print("numpy" in sys.modules)
run("sample", graph, "--n", "50", "--out", data)
run("bound", graph, "--data", data, "--x", "C", "--y", "D", "--mode", "maxoriented")
print("numpy" in sys.modules)
print("ampcg.oracle" in sys.modules)
run("class", graph)
print("ampcg.oracle" in sys.modules)
print("argparse" in sys.modules)
"""


def test_pipeline_commands_leave_the_oracle_unloaded(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("edge A -> B\nedge C -> B\nedge C -- D\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, str(graph), str(tmp_path / "d.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False", "True", "False"]


def test_star_import_binds_exactly_all_and_no_module():
    namespace: dict = {}
    exec("from ampcg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ampcg.__all__)
    assert len(set(ampcg.__all__)) == len(ampcg.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_other_names_are_not_forwarded():
    with pytest.raises(AttributeError):
        getattr(ampcg, "has_feasible_split")


_PATH = cg("ABCD", [], [("A", "B"), ("B", "C"), ("C", "D")])
_STAR = cg(
    ["X", *(f"L{i}" for i in range(SUPERSET_CAP + 1))],
    [],
    [(f"L{i}", "X") for i in range(SUPERSET_CAP + 1)],
)


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: oracle.enumerate_class(_PATH, max_edges=0),
         "3 edges exceeds the enumeration cap of 0"),
        (lambda: oracle.class_by_merge_split(_PATH, max_edges=0),
         "3 edges exceeds the closure cap of 0"),
        (lambda: oracle.has_feasible_split(_PATH, max_edges=0),
         "3 edges exceeds the split search cap of 0"),
        (lambda: enumerate_adjusting_sets(essential_graph(_STAR), "X", "superset"),
         "superset base of 21 nodes exceeds the cap of 20"),
    ],
    ids=["enumeration", "closure", "split-search", "superset"],
)
def test_cap_messages(refuse, message):
    with pytest.raises(TooLargeError) as caught:
        refuse()
    assert str(caught.value) == message


def _complete(k: int):
    names = node_names(k)
    return cg(names, [], [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])


def _past_the_maxoriented_cap() -> int:
    """The least k whose undirected K_k grows more than the cap's sets at one
    node: 2^(k-1) of them, every subset of the other k - 1 nodes."""
    return MAXORIENTED_CAP.bit_length() + 1


def test_maxoriented_refuses_just_past_its_cap():
    k = _past_the_maxoriented_cap()
    below = enumerate_adjusting_sets(essential_graph(_complete(k - 1)), "V0", "maxoriented")
    assert len(below) == 2 ** (k - 2)
    with pytest.raises(TooLargeError) as caught:
        enumerate_adjusting_sets(essential_graph(_complete(k)), "V0", "maxoriented")
    assert str(caught.value) == f"maxoriented mode exceeds the cap of {MAXORIENTED_CAP} sets"


def test_adjust_past_the_maxoriented_cap_is_exit_three(tmp_path, capsys):
    g = _complete(_past_the_maxoriented_cap())
    path = tmp_path / "k.txt"
    path.write_text("".join(f"edge {a} -- {b}\n" for a, b in sorted(g.undirected)))
    assert cli(["adjust", str(path), "--x", "V0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"size cap: maxoriented mode exceeds the cap of {MAXORIENTED_CAP} sets\n"


def test_the_oracle_command_builds_each_class_once(tmp_path, capsys, monkeypatch):
    # the member filters read the class and the closure the command already
    # holds, on a 13-edge draw whose class has 24 members
    g = random_chain_graph(random.Random(5), node_names(9), 0.12, 0.2)
    path = tmp_path / "g13.txt"
    path.write_text(serialize_graph(g))
    calls = {"enumerate_class": 0, "class_by_merge_split": 0}

    def counting(name):
        build = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(oracle, name, counting(name))
    assert cli(["oracle", str(path)]) == 0
    assert calls == {"enumerate_class": 1, "class_by_merge_split": 1}
    out = capsys.readouterr().out
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_minimal_members_come_from_one_enumeration(tmp_path, capsys, monkeypatch):
    # `minmax --mode min` filters the enumerated class; it builds no closure
    g = random_chain_graph(random.Random(5), node_names(9), 0.12, 0.2)
    path = tmp_path / "g13.txt"
    path.write_text(serialize_graph(g))
    calls = {"enumerate_class": 0, "class_by_merge_split": 0}

    def counting(name):
        build = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(oracle, name, counting(name))
    assert cli(["minmax", str(path), "--mode", "min"]) == 0
    assert calls == {"enumerate_class": 1, "class_by_merge_split": 0}
    assert capsys.readouterr().out.startswith("2 minimally oriented members\n")


def test_the_enumeration_runs_one_cycle_test_per_leaf(monkeypatch):
    # a kept member takes the component order its leaf found: the 66 leaves
    # of this draw make 66 cycle tests, none more for its 24 members
    g = random_chain_graph(random.Random(5), node_names(9), 0.12, 0.2)
    calls = 0
    order = graphs._component_order

    def counted(index):
        nonlocal calls
        calls += 1
        return order(index)

    monkeypatch.setattr(graphs, "_component_order", counted)
    monkeypatch.setattr(oracle, "_component_order", counted)
    assert len(oracle.enumerate_class(g)) == 24
    assert calls == 66


# the first 12 hex of sha256 of the stdout of each command that reads a class,
# on the 13-edge draw above, in text and in JSON
_CLASS_COMMAND_DIGESTS = {
    ("class",): ("c9bd15b0a730", "53fd5553f163"),
    ("minmax", "--mode", "min"): ("d4d48d877405", "b401c8dfa092"),
    ("adjust", "--x", "V0", "--mode", "class"): ("741abcb71bb3", "6bd04f5e8f96"),
}
_ORACLE_DIGEST = "f2eecda00e4f"


def _stdout_digest(capsys, argv) -> str:
    assert cli(argv) == 0, argv
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12]


def test_the_class_commands_keep_their_bytes(tmp_path, capsys):
    g = random_chain_graph(random.Random(5), node_names(9), 0.12, 0.2)
    path = tmp_path / "g13.txt"
    path.write_text(serialize_graph(g))
    for (command, *options), (text, as_json) in _CLASS_COMMAND_DIGESTS.items():
        argv = [command, str(path), *options]
        assert _stdout_digest(capsys, argv) == text, command
        assert _stdout_digest(capsys, ["--format", "json", *argv]) == as_json, command
    assert _stdout_digest(capsys, ["oracle", str(path)]) == _ORACLE_DIGEST
