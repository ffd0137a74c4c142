"""Spans around the public `ampcg` functions, recorded from outside the program.

`Tracer.install` replaces each traced function on every `ampcg` module
attribute that refers to it, which is where its callers look it up, so the
span knows its call site (for example `apply_rules_R` looked up in
`ampcg.strong` is a re-blocking check, in `ampcg.essential` the essential
graph's fixpoint).  Spans are kept in memory as (name, site, parent, start,
end, note) and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from importlib import import_module
from pathlib import Path

#: (defining module, function, what the span notes about the call)
TARGETS = (
    ("cli", "cli", None),
    ("io_text", "parse_graph", None),
    ("io_text", "read_dataset", None),
    ("io_text", "to_json", None),
    ("io_text", "serialize_graph", None),
    ("graphs", "validate_chain_graph", None),
    ("separation", "separated", None),
    ("essential", "separator_table", "pairs"),
    ("essential", "apply_rules_R", None),
    ("essential", "double_block_chordless_cycles", None),
    ("essential", "essential_graph", None),
    ("strong", "label_strong", None),
    ("strong", "accelerator_labels", None),
    ("equivalence", "equivalent", "result"),
    ("transform", "maximally_oriented", None),
    ("causal", "enumerate_adjusting_sets", "size"),
    ("causal", "locally_valid", None),
    ("gaussian", "bound_effect", None),
    ("gaussian", "adjusted_effect", None),
)


def _non_adjacent_pairs(g) -> int:
    n = len(g.nodes)
    return n * (n - 1) // 2 - len(g.skeleton)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, float, float, object]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, site: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children follow their parent
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if note == "pairs":
                    detail = _non_adjacent_pairs(args[0])
                elif note == "result":
                    detail = result
                elif note == "size":
                    detail = len(result) if result is not None else None
                else:
                    detail = None
                spans[index] = (name, site, parent, start, end, detail)

        return wrapper

    def install(self) -> None:
        for home, _, _ in TARGETS:
            import_module(f"ampcg.{home}")
        modules = {
            name.split(".", 1)[1]: module
            for name, module in list(sys.modules.items())
            if name.startswith("ampcg.") and module is not None
        }
        for home, func, note in TARGETS:
            original = getattr(modules[home], func, None)
            if original is None:
                sys.stderr.write(f"trace: ampcg.{home}.{func} is gone; its metrics read 0\n")
                continue
            for site, module in modules.items():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self._wrap(f"{home}.{func}", site, original, note)
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tsite\tparent\tstart_s\tend_s\tnote\n")
            for i, (name, site, parent, start, end, detail) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{site}\t{parent}\t{start:.9f}\t{end:.9f}\t{detail}\n")


def layer_metrics(spans, ops: int, speed: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from a traced run of `ops` commands; times are
    multiplied by `speed` to put them on the end-to-end metrics' scale."""
    total: dict[tuple[str, str | None], float] = {}
    calls: dict[tuple[str, str | None], int] = {}
    child_time = [0.0] * len(spans)
    for name, site, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        for key in ((name, site), (name, None)):
            total[key] = total.get(key, 0.0) + (end - start)
            calls[key] = calls.get(key, 0) + 1

    def ms(name, site=None):
        return (1000.0 * speed * total.get((name, site), 0.0) / ops, "ms")

    def per_op(name, site=None):
        return (calls.get((name, site), 0) / ops, "count")

    def ratio(num: float, den: float):
        return (num / den if den else 0.0, "ratio")

    cli_self = sum(
        (end - start) - child_time[i]
        for i, (name, _, _, start, end, _) in enumerate(spans)
        if name == "cli.cli"
    )
    pairs = sum(d for name, _, _, _, _, d in spans if name == "essential.separator_table")
    table_seps = sum(
        1 for name, _, parent, _, _, _ in spans
        if name == "separation.separated" and parent >= 0
        and spans[parent][0] == "essential.separator_table"
    )
    eq_hits = sum(
        1 for name, site, _, _, _, d in spans
        if name == "equivalence.equivalent" and site == "transform" and d is True
    )
    sets = sum(d or 0 for name, _, _, _, _, d in spans if name == "causal.enumerate_adjusting_sets")
    render = ms("io_text.to_json", "cli")[0] + ms("io_text.serialize_graph", "cli")[0]
    return {
        "cli.self_ms": (1000.0 * speed * cli_self / ops, "ms"),
        "io_text.parse_graph_ms": ms("io_text.parse_graph"),
        "io_text.read_dataset_ms": ms("io_text.read_dataset"),
        "io_text.render_ms": (render, "ms"),
        "graphs.validate_calls": per_op("graphs.validate_chain_graph"),
        "graphs.validate_ms": ms("graphs.validate_chain_graph"),
        "separation.separated_calls": per_op("separation.separated"),
        "separation.separated_ms": ms("separation.separated"),
        "essential.separator_table_ms": ms("essential.separator_table"),
        "essential.separator_hit_ratio": ratio(pairs, table_seps),
        "essential.rules_ms": ms("essential.apply_rules_R", "essential"),
        "essential.double_block_ms": ms("essential.double_block_chordless_cycles"),
        "essential.essential_graph_ms": ms("essential.essential_graph"),
        "strong.label_strong_ms": ms("strong.label_strong"),
        "strong.reblock_calls": per_op("essential.apply_rules_R", "strong"),
        "strong.reblock_ms": ms("essential.apply_rules_R", "strong"),
        "strong.accelerator_ms": ms("strong.accelerator_labels"),
        "equivalence.equivalent_calls": per_op("equivalence.equivalent"),
        "equivalence.equivalent_ms": ms("equivalence.equivalent"),
        "transform.maximally_oriented_ms": ms("transform.maximally_oriented"),
        "transform.split_hit_ratio": ratio(
            eq_hits, calls.get(("graphs.validate_chain_graph", "transform"), 0)
        ),
        "causal.enumerate_ms": ms("causal.enumerate_adjusting_sets"),
        "causal.locally_valid_calls": per_op("causal.locally_valid"),
        "causal.adjusting_sets": (sets / ops, "count"),
        "gaussian.bound_effect_ms": ms("gaussian.bound_effect"),
        "gaussian.adjusted_effect_ms": ms("gaussian.adjusted_effect"),
        "gaussian.regressions": per_op("gaussian.adjusted_effect"),
    }
