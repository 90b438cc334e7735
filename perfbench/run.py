"""Benchmark of the zetalab package: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 10 --trace 0

Runs from the root of a source tree and imports zetalab from its src/.  One
client in one process runs passes of ops back to back, each pass with fresh
seeded inputs, until --seconds have passed (at least one pass).  Every op's
output is checked outside the timed region.  The last line of standard
output is a JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, their
timings corrected for the machine's drifting speed (speed.py), and the
per-layer ones with --trace 1.  Spans and a full result record are written
under .perfbench_out/.  perfbench/README.md says what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import zetalab, zetalab.cli; "
    "ctx = zetalab.PrecisionContext(15); "
    "zetalab.zeta(zetalab.ComplexAP(ctx.real('0.5'), ctx.real('14')), ctx)"
)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(spec: dict, argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(probe) -> float:
    """Median time for a fresh interpreter to import zetalab and zetalab.cli and
    finish one tiny zeta, at the reference speed of the probes taken just
    before and after each start; the first, untimed start warms the bytecode
    cache."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        before = probe.sample()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True, capture_output=True, timeout=120
        )
        seconds = time.perf_counter() - start
        times.append(seconds * speed.REFERENCE_PROBE_S / statistics.fmean((before, probe.sample())))
    return statistics.median(times[1:])


def environment() -> dict:
    import mpmath

    digest = hashlib.sha256()
    for path in sorted((SRC / "zetalab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = git.stdout.split()
        commit = lines[1] if git.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
        "src_zetalab_sha256": digest.hexdigest(),
    }


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(ops, first_id: int, tracer) -> list[dict]:
    records = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + k
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failing op is counted against the run, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu0
        accuracy = None
        if error is None:
            try:
                accuracy = op.check(result)
            except Exception as exc:  # includes CheckFailed
                error = f"check {type(exc).__name__}: {exc}"
        records.append(
            {"label": op.label, "start": start, "end": end, "seconds": end - start, "cpu_s": cpu,
             "error": error, "accuracy": accuracy}
        )
    return records


def correct_for_speed(records: list[dict], probe) -> None:
    """Take the probes out of each op's time and scale it to the reference speed."""
    for record in records:
        probing = probe.inside(record["start"], record["end"])
        factor = probe.factor(record["start"], record["end"])
        record.update(
            raw_seconds=record["seconds"], raw_cpu_s=record["cpu_s"], probe_s=probing, speed_factor=factor,
            seconds=(record["seconds"] - probing) * factor, cpu_s=(record["cpu_s"] - probing) * factor,
        )


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, the weights peaking at rank p*n.  Where op times are sparse
    around that rank it moves far less from run to run than any single one."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    return math.fsum(
        float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x for i, x in enumerate(ordered)
    )


def end_to_end(passes: list[list[dict]], aggregate, key: str = "") -> dict:
    ops = [record for records in passes for record in records]
    times = [record[key + "seconds"] for record in ops]
    accuracies = [r["accuracy"] for r in ops if r["error"] is None and r["accuracy"] is not None]
    return {
        "wall_s": statistics.median(sum(r[key + "seconds"] for r in records) for records in passes),
        "op_p50_s": quantile(times, 0.5),
        "op_p90_s": quantile(times, 0.9),
        "cpu_s": statistics.median(sum(r[key + "cpu_s"] for r in records) for records in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_digits": aggregate(accuracies) if accuracies else 0.0,
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    args = parse_args(spec, argv)
    if not (SRC / "zetalab" / "__init__.py").is_file():
        fail(f"no zetalab sources under {SRC}; run from a zetalab source tree")
    sys.path.insert(0, str(SRC))
    import zetalab

    if Path(zetalab.__file__).resolve().parent != (SRC / "zetalab").resolve():
        fail(f"imported zetalab from {zetalab.__file__}, not from {SRC}")
    import spans
    import workloads

    env = environment()
    print(json.dumps({"env": env}), flush=True)
    build, aggregate = workloads.WORKLOADS[args.workload]
    # per-layer spans are raw times; end-to-end times are corrected for the machine's speed
    probe = None if args.trace else speed.SpeedProbe()
    setup = None if args.trace else setup_seconds(probe)

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = spans.Tracer() if args.trace else None
    calls = workloads.Calls(tracer)
    passes: list[list[dict]] = []
    try:
        with tracer.patched() if tracer else probe.running():
            origin = time.perf_counter()
            while not passes or time.perf_counter() - origin < args.seconds:
                ops = build(calls, args.seed, len(passes), work_dir)
                passes.append(run_pass(ops, sum(map(len, passes)), tracer))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    records = [record for records in passes for record in records]
    if tracer:
        first = passes[0]
        values = spans.layer_metrics(tracer.spans, len(first), sum(r["seconds"] for r in first))
        declared = spec["per_layer"]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv", origin)
    else:
        correct_for_speed(records, probe)
        values = end_to_end(passes, aggregate)
        values["setup_s"] = setup
        declared = spec["end_to_end"]
        raw = end_to_end(passes, aggregate, key="raw_")
        print(json.dumps({"raw": {name: raw[name] for name in ("wall_s", "op_p50_s", "op_p90_s", "cpu_s")},
                          "probes": len(probe.samples)}), flush=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = sum(1 for record in records if record["error"] is not None)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}

    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
             "passes": len(passes), "result": result, "ops": records},
            indent=1,
        )
    )
    for record in records:
        if record["error"] is not None:
            print(f"FAILED {record['label']}: {record['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
