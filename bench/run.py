"""End-to-end benchmark of the `ampcg` command line.

    python3 bench/run.py --workload strong-mid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from `src/`.
Each command is one call of `ampcg.cli.cli(argv)` in this process, with its
output captured.  A round is the workload's fixed, ordered list of commands;
a run does a whole number of rounds, fixed by `--seconds` and the workload's
nominal round time, so the work never depends on how fast the machine is.
All outputs are checked after the timed region.  The last line printed is one
JSON object: end-to-end metrics with `--trace 0`, per-layer metrics from a
separately traced part of the run with `--trace 1`.

Times are scaled to a fixed machine speed.  Between any two commands the run
times a fixed pure-Python reference chunk; each command's wall time is
multiplied by the chunk's nominal time over its measured time nearby.  On
the reference machine (bench/README.md) speed drifts by up to 1.9x over tens
of seconds, on both processors at once, which left raw wall-time medians of
the same code 15-40 % apart from run to run.  The raw wall-clock figures are
printed on the lines before the result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
from corpus import Op, Shape  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3
PERMUTED_GRAPHS = 2  # strong-mid graphs re-run under a fixed renaming
REF_ITERATIONS = 40_000  # one reference chunk
REF_NOMINAL_S = 0.0045  # its median time on the reference machine
REF_WINDOW = 4  # chunks on each side of a command that set its speed


@dataclass(frozen=True)
class Workload:
    shape: Shape
    round_s: float  # nominal time of one round on the reference machine
    quick: Shape  # tiny corpus for quick mode


WORKLOADS = {
    "strong-mid": Workload(Shape(30, 0.04, 0.07, 81), 15.0, Shape(8, 0.15, 0.2, 4)),
    "eg-large": Workload(Shape(100, 0.01, 0.016, 71), 15.0, Shape(8, 0.15, 0.2, 4)),
    "bound-csv": Workload(
        Shape(10, 0.15, 0.25, 12, dag_every=3, rows=2000, pairs=4),
        1.5,
        Shape(8, 0.15, 0.25, 3, dag_every=3, rows=200, pairs=2),
    ),
    "maxorient": Workload(
        Shape(12, 0.15, 0.2, 91, min_component=4), 15.0, Shape(8, 0.2, 0.2, 4, min_component=3)
    ),
}


def ref_chunk() -> float:
    """Seconds for the fixed pure-Python reference chunk."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def call(cli_mod, argv) -> tuple[float, str, object]:
    """One command: (wall seconds, stdout, exit code or traceback text)."""
    real_out, real_err = sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        start = time.perf_counter()
        try:
            code = cli_mod.cli(list(argv))
        except Exception:  # a traceback out of cli() fails this command only
            code = traceback.format_exc(limit=2)
        seconds = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return seconds, out.getvalue(), code


def run_one(cli_mod, argv) -> str:
    _, output, code = call(cli_mod, argv)
    if code != 0:
        raise RuntimeError(f"ampcg {' '.join(argv)} failed: {code}")
    return output


@dataclass
class Timed:
    """Whole rounds of commands with a reference chunk between any two."""

    samples: list[float]  # raw wall seconds per command
    outputs: list[str]
    codes: list[object]
    refs: list[float]  # chunk before each command, and one after the last

    def scaled(self) -> list[float]:
        """Each command's time at the nominal speed of the reference chunk,
        measured as the median of the chunks around it."""
        out = []
        for i, t in enumerate(self.samples):
            near = self.refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 2]
            out.append(t * REF_NOMINAL_S / statistics.median(near))
        return out


def run_rounds(cli_mod, ops: list[Op], rounds: int) -> Timed:
    timed = Timed([], [], [], [])
    for _ in range(rounds):
        for op in ops:
            timed.refs.append(ref_chunk())
            seconds, output, code = call(cli_mod, op.argv)
            timed.samples.append(seconds)
            timed.outputs.append(output)
            timed.codes.append(code)
    timed.refs.append(ref_chunk())
    return timed


def _permuted_strong(cli_mod, op: Op, workdir: Path, doc: dict) -> bool:
    """Renaming the nodes by a fixed permutation renames the output."""
    names = list(op.graph.nodes)
    forward = dict(zip(names, reversed(names)))
    path = workdir / f"perm{op.index:03d}.txt"
    path.write_text(corpus.graph_text(op.graph.renamed(forward), random.Random(0)))
    renamed = json.loads(run_one(cli_mod, ["--format", "json", "strong", str(path)]))
    strong_dir, strong_und = checks.strong_labels(doc)
    want = (
        checks.parse_kind_json(doc).renamed(forward),
        {(forward[u], forward[v]) for u, v in strong_dir},
        {tuple(sorted((forward[a], forward[b]))) for a, b in strong_und},
    )
    return (checks.parse_kind_json(renamed), *checks.strong_labels(renamed)) == want


def judge(name: str, cli_mod, ops: list[Op], outputs, codes, workdir: Path):
    """Check the first round's outputs independently; later rounds must repeat
    them byte for byte.  Returns (failed commands, problems found)."""
    n = len(ops)
    bad: list[str | None] = [None] * n
    data_cache: dict[str, tuple] = {}
    for i, op in enumerate(ops):
        if codes[i] != 0:
            bad[i] = f"exit {codes[i]!r}"
            continue
        text = outputs[i]
        try:
            if name == "strong-mid":
                problems = checks.check_strong(text, op.graph)
                if op.index < PERMUTED_GRAPHS and not _permuted_strong(
                    cli_mod, op, workdir, json.loads(text)
                ):
                    problems.append("renaming the nodes does not rename the output")
            elif name == "eg-large":
                problems = checks.check_eg(text, op.graph)
            elif name == "maxorient":
                strong_text = run_one(cli_mod, ["--format", "json", "strong", op.argv[1]])
                problems = checks.check_maxorient(text, strong_text, op.graph)
            else:
                if op.data not in data_cache:
                    data_cache[op.data] = checks.read_csv(op.data)
                problems = checks.check_bound(text, op, data_cache[op.data])
        except (ValueError, KeyError, TypeError, RuntimeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            bad[i] = "; ".join(problems)
    failed, found = 0, []
    for k, (text, code) in enumerate(zip(outputs, codes)):
        i = k % n
        reason = bad[i] or (None if text == outputs[i] and code == 0 else "output not repeated")
        if reason:
            failed += 1
            if len(found) < 5:
                found.append(f"{' '.join(ops[i].argv)}: {reason}")
    return failed, found


def digest(outputs) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (value, percentile): the eleventh-largest sample."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timing_metrics(times: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "op_tail_ms": (1000.0 * tail(times)[0], "ms"),
    }


def set_up(cli_mod, name: str, shape: Shape, seed: int, workdir: Path):
    """Generate and write the corpus, then one untimed warm-up command;
    SETUP_REPS times.  Returns the ops and the median scaled seconds."""
    times = []
    for rep in range(SETUP_REPS):
        before = ref_chunk()
        start = time.perf_counter()
        ops = corpus.build_round(name, shape, seed, workdir / f"setup{rep}")
        call(cli_mod, ops[0].argv)
        seconds = time.perf_counter() - start
        times.append(seconds * 2 * REF_NOMINAL_S / (before + ref_chunk()))
    return ops, statistics.median(times)


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    import ampcg.cli as cli_mod

    src = ROOT / "src" / "ampcg"
    if Path(cli_mod.__file__).resolve().parent != src.resolve():
        raise SystemExit(f"imported ampcg from {cli_mod.__file__}, not from {src}")
    import_s = (time.perf_counter() - T0) * REF_NOMINAL_S / statistics.median(
        ref_chunk() for _ in range(3)
    )
    spec = WORKLOADS[name]
    shape = spec.quick if quick else spec.shape
    rounds = 1 if quick else max(1, round(seconds / spec.round_s))
    workdir = BENCH / ".work" / f"{name}-s{seed}-p{os.getpid()}"
    try:
        ops, setup_s = set_up(cli_mod, name, shape, seed, workdir)
        if trace:
            half = max(1, rounds // 2)
            untraced = run_rounds(cli_mod, ops, half)
            tracer = Tracer()
            tracer.install()
            try:
                timed = run_rounds(cli_mod, ops, half)
            finally:
                tracer.uninstall()
            outputs = untraced.outputs + timed.outputs
            codes = untraced.codes + timed.codes
        else:
            timed = run_rounds(cli_mod, ops, rounds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            outputs, codes = timed.outputs, timed.codes
        failed, problems = judge(name, cli_mod, ops, outputs, codes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ref_ms = 1000.0 * statistics.median(timed.refs)
    raw = timing_metrics(timed.samples)
    lines = [
        "wall clock: " + ", ".join(f"{k} {v:.4g}" for k, (v, _) in raw.items())
        + f"; reference chunk median {ref_ms:.3f} ms (nominal {1000 * REF_NOMINAL_S} ms)"
    ]
    if trace:
        speed = REF_NOMINAL_S / statistics.median(timed.refs)
        metrics = layer_metrics(tracer.spans, len(timed.samples), speed)
        plain = timing_metrics(untraced.scaled())["ops_per_s"][0]
        traced = timing_metrics(timed.scaled())["ops_per_s"][0]
        metrics["trace.untraced_ops_per_s"] = (plain, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (plain - traced) / plain, "%")
        metrics["machine.ref_chunk_ms"] = (ref_ms, "ms")
        spans_path = BENCH / ".out" / f"spans-{name}-s{seed}.tsv.gz"
        tracer.write(spans_path)
        lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        plan = f"{half} untraced + {half} traced rounds"
    else:
        metrics = timing_metrics(timed.scaled())
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["setup_s"] = (import_s + setup_s, "s")
        n = len(timed.samples)
        lines.append(f"op_tail_ms is p{tail(timed.samples)[1]:.1f} of {n} samples")
        plan = f"{rounds} rounds"
    return {
        "correct": not problems,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": {
            "plan": f"{plan} of {len(ops)} commands",
            "digest": digest(outputs[: len(ops)]),
            "lines": lines,
            "problems": problems,
        },
    }


def use_source_tree() -> bool:
    """Put the checkout's `src/` first on the import path; False without it."""
    src = ROOT / "src"
    if not (src / "ampcg" / "__init__.py").is_file():
        sys.stderr.write(f"no ampcg sources under {src}; run from a source checkout\n")
        return False
    sys.path.insert(0, str(src))
    return True


def reference_digest(name: str, seed: int) -> str | None:
    table = json.loads((BENCH / "digests.json").read_text())
    return table.get(name, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source_tree():
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    notes = result.pop("notes")
    ref = reference_digest(args.workload, args.seed)
    verdict = "no reference for this seed" if ref is None else (
        "matches the reference" if ref == notes["digest"] else "DIFFERS from the reference"
    )
    print(f"workload {args.workload} seed {args.seed}: {notes['plan']}; "
          f"attempted {result['attempted']}, failed {result['failed']}")
    print(f"output digest {notes['digest']} ({verdict})")
    for line in notes["lines"]:
        print(line)
    for problem in notes["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
