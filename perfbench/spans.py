"""Spans recorded around calls into zetalab's layers, and the per-layer
metrics derived from them.

Only the benchmark's own wrappers record spans: `Tracer.patched` swaps the
module-level names one layer imports from another (for example
`zetalab.solver.zeta`) for timing wrappers and restores them on exit, and
`Tracer.wrap` times the calls the benchmark makes itself.  Nothing under
src/zetalab changes.  Counters come from the public return values and
arguments of the wrapped calls, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

from zetalab import cli, series, solver, spiral


def zeta_counts(result, args):
    return {"oracle.zeta.terms": result.terms_used, "oracle.zeta.order": result.correction_order}


def eliminate_counts(result, args):
    # complex multiply-subtracts of the forward sweep plus back substitution
    n = len(args[0])
    return {"solver.eliminate.mulsub": (n**3 - n) // 3 + n * (n - 1) // 2}


def weighted_zeta_counts(result, args):
    return {"series.weighted_zeta.terms": args[2]}


# (module, imported name, span name, counter function) for every call one
# layer makes into another that the workloads reach
LAYER_PATCHES = (
    (solver, "zeta", "oracle.zeta", zeta_counts),
    (solver, "power_term", "precision.power_term", None),
    (solver, "assemble_system", "solver.assemble_system", None),
    (solver, "_eliminate", "solver.eliminate", eliminate_counts),
    (solver, "_residual_inf", "solver.residual", None),
    (series, "zeta", "oracle.zeta", zeta_counts),
    (series, "truncation_length", "series.truncation_length", None),
    (series, "weighted_zeta", "series.weighted_zeta", weighted_zeta_counts),
    (spiral, "chi", "oracle.chi", None),
    (cli, "zeta_eval_op", "oracle.zeta", zeta_counts),
)

SPAN_NAMES = (
    "cli.invoke",
    "experiments.run_preset",
    "oracle.chi",
    "oracle.zeta",
    "precision.power_term",
    "series.calibrate_b",
    "series.truncation_length",
    "series.weighted_zeta",
    "sigmoid.construct_fit",
    "solver.assemble_system",
    "solver.eliminate",
    "solver.residual",
    "spiral.partial_sums",
    "svgplot.spiral_svg",
)

COUNTER_NAMES = (
    "experiments.output.bytes",
    "experiments.runner.s",
    "oracle.zeta.order",
    "oracle.zeta.terms",
    "series.calibrate_b.evals",
    "series.weighted_zeta.terms",
    "solver.eliminate.mulsub",
    "spiral.partial_sums.terms",
    "svgplot.spiral_svg.bytes",
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                record[5] = count(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module, attr, name, count in LAYER_PATCHES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path, origin: float):
        with path.open("w") as out:
            out.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op, _ in self.spans:
                out.write(f"{name},{start - origin:.6f},{end - origin:.6f},{parent},{op}\n")


def layer_metrics(spans: list[list], n_ops: int, op_seconds: float) -> dict:
    """Per-op layer figures over the spans of ops 0..n_ops-1.

    `*.s` is span time, `*.self_s` span time minus direct child spans and
    `*.calls` the span count, each divided by n_ops; counters likewise.
    `trace.leaf_cover` is the share of op_seconds spent inside spans that
    have no traced child, `trace.wall_s` is op_seconds itself and
    `trace.overhead_s` the estimated wrapper time per op: spans per op times
    one wrapper's cost.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op, _ in spans:
        if op < n_ops and parent >= 0:
            child_time[parent] += end - start
    totals = {f"{name}.{kind}": 0.0 for name in SPAN_NAMES for kind in ("s", "self_s", "calls")}
    totals.update(dict.fromkeys(COUNTER_NAMES, 0))
    leaf = 0.0
    for index, (name, start, end, parent, op, counts) in enumerate(spans):
        if op >= n_ops:
            continue
        duration = end - start
        totals[f"{name}.s"] += duration
        totals[f"{name}.self_s"] += duration - child_time.get(index, 0.0)
        totals[f"{name}.calls"] += 1
        if index not in child_time:
            leaf += duration
        for key, value in (counts or {}).items():
            totals[key] += value
    values = {key: value / n_ops for key, value in totals.items()}
    values["experiments.io.s"] = values["experiments.run_preset.s"] - values["experiments.runner.s"]
    terms = totals["series.weighted_zeta.terms"]
    values["series.weighted_zeta.us_per_term"] = (
        1e6 * totals["series.weighted_zeta.s"] / terms if terms else 0.0
    )
    values["trace.leaf_cover"] = leaf / op_seconds
    values["trace.ops"] = n_ops
    values["trace.wall_s"] = op_seconds
    spans_per_op = sum(value for key, value in values.items() if key.endswith(".calls"))
    values["trace.overhead_s"] = spans_per_op * wrapper_seconds()
    return values


def wrapper_seconds(calls: int = 20000) -> float:
    """Time one span wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    middle = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, (middle - start) - (time.perf_counter() - middle)) / calls
