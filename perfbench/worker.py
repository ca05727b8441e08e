"""Measure one workload: set up, check, then time passes for a fixed time.

Started by ``run.py`` in a fresh process (see there for the environment
it sets). A run:

1. sets the workload up ``SETUP_REPEATS`` times (inputs from the seed,
   engine, Spark session) and reports the median as ``setup_s``;
2. runs a warm-up pass that lets lazy imports and caches settle; its
   counters are the run's count metrics, since it is the one pass whose
   position in the run never changes;
3. runs timed passes, closed loop and in a fixed item order, until
   ``--seconds`` have passed. With ``--trace 1`` the warm-up pass and
   every second timed pass are traced and the others are not, so the
   run also measures the tracing overhead.

In every pass each item first runs on plain pandas (numpy for the
arrays), timed, and then on the engine, timed; the engine's result is
checked against the plain one. The ratio of the two times is the
end-to-end measure, because it holds still when the host's speed drifts
(see README.md). The last line of standard output is the JSON result;
the exit code is 1 when any check failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MIB, PASS_INVARIANT, WHY, ItemRun, geomean, set_up,
)

SETUP_REPEATS = 3
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END = {
    "setup_s": "s", "pass_vs_pandas": "ratio", "item_vs_pandas_geomean": "ratio",
    "ok_rate": "ratio", "peak_band_mib": "MiB", "rss_peak_mib": "MiB",
}
PER_LAYER = {
    "pass_s": "s", "item_geomean_s": "s", "baseline.pass_s": "s",
    "engine.materialize_s": "s", "frontend.build_s": "s",
    "tiling.s": "s", "tiling.probe_s": "s", "tiling.yields": "count",
    "tiling.probe_chunks": "count",
    "fusion.s": "s", "fusion.chunks_per_subtask": "ratio",
    "scheduler.s": "s",
    "executor.loop_s": "s", "executor.kernel_s": "s",
    "executor.subtasks": "count", "executor.waves": "count",
    "storage.puts": "count", "storage.gets": "count",
    "storage.put_s": "s", "storage.get_s": "s", "storage.spills": "count",
    "storage.reloads": "count", "storage.reload_s": "s",
    "session.fetch_s": "s",
    "spark.jobs": "count", "spark.tasks": "count", "spark.job_s": "s",
    "spark.ship_s": "s", "spark.shipped_mib": "MiB",
    "spark.shipped_mib_per_task": "MiB",
    "plan.merge_broadcast": "count", "plan.merge_shuffle": "count",
    "plan.merge_skew": "count", "plan.reduce_tree": "count",
    "plan.reduce_shuffle": "count", "plan.auto_merges": "count",
    "trace.pass_s": "s", "trace.overhead_s": "s",
}


def spark_starter(nproc: int):
    """A function that brings up a local Spark session whose Python
    workers import ``repro`` from this checkout, and returns it with a
    function that stops it and waits for its JVM to exit."""
    import shlex

    tmp = os.path.join(ROOT, ".bench_tmp", "spark")
    os.makedirs(tmp, exist_ok=True)
    # C1-only JIT: with C2, pass times settled at levels up to 30 % apart
    # from one JVM launch to the next
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{nproc}]", "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "--driver-java-options",
        shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:TieredStopAtLevel=1"),
        "pyspark-shell",
    ])

    def start():
        from pyspark import SparkContext
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.executorEnv.PYTHONPATH", os.path.join(ROOT, "src"))
            .getOrCreate()
        )
        gateway = SparkContext._gateway

        def stop():
            proc = getattr(gateway, "proc", None)
            spark.stop()
            gateway.shutdown()
            if proc is not None:
                proc.stdin.close()
                proc.wait(60)
            # the next start launches a fresh JVM
            SparkContext._gateway = None
            SparkContext._jvm = None

        return spark, stop

    return start


def environment(nproc: int) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__, "pyspark": pyspark.__version__,
        "platform": platform.platform(), "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def pass_counts(runs: dict[str, ItemRun]) -> dict[str, int]:
    total: dict[str, int] = {}
    for run in runs.values():
        for k, v in run.counts.items():
            if k == "peak_band_bytes":
                total[k] = max(total.get(k, 0), v)
            else:
                total[k] = total.get(k, 0) + v
    return total


def run_pass(setup, no: int, tracer) -> dict[str, ItemRun]:
    runs = {}
    with tracer.installed() if tracer else nullcontext():
        for item in setup.items:
            if tracer:
                tracer.item = f"{no}:{item.name}"
            t0 = perf_counter()
            try:
                runs[item.name] = item.run()
            except Exception as exc:  # noqa: BLE001 - a failure is a result
                runs[item.name] = ItemRun(
                    perf_counter() - t0, float("nan"), {},
                    f"{type(exc).__name__}: {exc}\n"
                    + traceback.format_exc(limit=4))
    return runs


def measure(args, setup) -> tuple[dict, dict]:
    tracer = Tracer(spark=setup.spark is not None) if args.trace else None
    passes = [(0, bool(tracer), run_pass(setup, 0, tracer))]
    t0 = perf_counter()
    while True:
        no = len(passes)
        traced = bool(tracer) and no % 2 == 0
        passes.append((no, traced, run_pass(setup, no, tracer if traced else None)))
        kinds = {t for _n, t, _r in passes[1:]}
        if perf_counter() - t0 >= args.seconds and (not tracer or len(kinds) == 2):
            break

    failures = []
    for no, _traced, runs in passes:
        for name, run in runs.items():
            if run.error:
                failures.append(f"pass {no} {name}: {run.error}")
    base = pass_counts(passes[0][2])
    for no, _traced, runs in passes[1:]:
        counts = pass_counts(runs)
        moved = [k for k in PASS_INVARIANT if counts.get(k) != base.get(k)]
        if moved:
            failures.append(f"pass {no}: counters differ from the warm-up "
                            f"pass: {', '.join(moved)}")
    attempted = sum(len(r) for _n, _t, r in passes)
    failed = sum(1 for _n, _t, r in passes for run in r.values() if run.error)

    plain = [r for _n, t, r in passes[1:] if not t]
    pass_s = [sum(run.seconds for run in r.values()) for r in plain]
    baseline_s = [sum(run.baseline_s for run in r.values()) for r in plain]
    ratios = [a / b for a, b in zip(pass_s, baseline_s)]
    names = [item.name for item in setup.items]
    item_s = {k: statistics.median(r[k].seconds for r in plain) for k in names}
    item_ratio = {
        k: statistics.median(r[k].seconds / r[k].baseline_s for r in plain)
        for k in names
    }
    detail = {
        "pass_s": quartiles(pass_s),
        "baseline_pass_s": quartiles(baseline_s),
        "pass_vs_pandas": quartiles(ratios),
        "items_median_s": item_s,
        "items_median_vs_pandas": item_ratio,
        "passes": [
            {"no": n, "traced": t,
             "items": {k: {"seconds": v.seconds, "baseline_s": v.baseline_s,
                           "error": v.error}
                       for k, v in r.items()}}
            for n, t, r in passes
        ],
        "warmup_counts": {k: dict(v.counts) for k, v in passes[0][2].items()},
        "failures": failures,
    }
    metrics = {
        "pass_vs_pandas": statistics.median(ratios),
        "item_vs_pandas_geomean": geomean(list(item_ratio.values())),
        "pass_s": statistics.median(pass_s),
        "item_geomean_s": geomean(list(item_s.values())),
        "baseline.pass_s": statistics.median(baseline_s),
        "ok_rate": 1.0 - failed / attempted,
        "peak_band_mib": base.get("peak_band_bytes", 0) / MIB,
        "rss_peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        metrics.update(layer_metrics(tracer, passes, base, metrics["pass_s"]))
        detail["layers"] = {
            n: Tracer.layer_table(tracer.pass_spans(n)) for n, t, _r in passes if t
        }
        detail["spans_file"] = write_spans(args, tracer)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures}, detail


def layer_metrics(tracer: Tracer, passes, base: dict, pass_s: float) -> dict:
    """Times are medians over the traced timed passes; counts come from
    the (traced) warm-up pass."""
    traced = [n for n, t, _r in passes[1:] if t]
    per_pass = [Tracer.pass_layers(tracer.pass_spans(n)) for n in traced]
    warm = Tracer.pass_layers(tracer.pass_spans(0))
    out = {}
    for name, unit in PER_LAYER.items():
        if name in base:
            out[name] = base[name]
        elif name in warm and unit != "s":
            out[name] = warm[name]
        elif name in warm:
            out[name] = statistics.median(p[name] for p in per_pass)
    traced_s = [sum(r.seconds for r in runs.values())
                for _n, t, runs in passes[1:] if t]
    out["trace.pass_s"] = statistics.median(traced_s)
    out["trace.overhead_s"] = out["trace.pass_s"] - pass_s
    return out


def write_spans(args, tracer: Tracer) -> str:
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl")
    with open(path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({
                "id": s.id, "parent": s.parent, "item": s.item,
                "layer": s.layer, "start": s.start, "end": s.end,
                "self_s": s.self_s, **s.attrs}) + "\n")
    return os.path.relpath(path, ROOT)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    starter = spark_starter(nproc) if args.workload == "tpch-spark" else None

    setup_s, setup = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if setup is not None:
                setup.close()
                setup = None
            t0 = perf_counter()
            setup = set_up(args.workload, args.seed, starter)
            setup_s.append(perf_counter() - t0)
        result, detail = measure(args, setup)
    finally:
        if setup is not None:
            setup.close()

    metrics = dict(result["metrics"], setup_s=statistics.median(setup_s))
    wanted = PER_LAYER if args.trace else END_TO_END
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in wanted.items()}
    for name, m in report.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)

    detail.update({
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(nproc), "inputs": setup.input_sizes(),
        "setup_s": quartiles(setup_s), "metrics": report,
    })
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(detail, f, indent=1, default=str)
    correct = result["failed"] == 0 and not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
