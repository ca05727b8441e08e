"""Benchmark entry point: run one workload in a fresh worker process.

    python3 perfbench/run.py --workload tpch-local --seed 1 --seconds 10 --trace 0

Workloads: tpch-local, tpch-tight, ds-ml, tpch-spark (see README.md).
Prints one line per metric and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits non-zero
when a result is wrong or the run fails.

The worker gets a fixed environment: BLAS/OpenMP threads capped at the
number of usable cores, ``REPRO_THREADS`` and ``PYTHONPATH`` unset (the
worker puts this checkout's ``src`` on its own path, and Spark workers
get it from the Spark session), a fixed ``PYTHONHASHSEED`` so that the
engine's hash-ordered containers iterate the same way for the same seed,
and temporary files inside the checkout. The worker runs in its own
process group, which is emptied before this script exits.
"""
from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_MAX_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    env.pop("REPRO_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYSPARK_PYTHON"] = sys.executable
    tmp = os.path.join(ROOT, ".bench_tmp", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def _empty_group(pgid: int, grace_s: float = 10.0) -> None:
    """Stop whatever the worker left in its process group and wait until
    none of it runs any more."""
    sig = signal.SIGTERM
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.1)
        if time.monotonic() > deadline:
            if sig == signal.SIGKILL:
                return
            sig, deadline = signal.SIGKILL, time.monotonic() + grace_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(len(os.sched_getaffinity(0))),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {args.workload} ran over {TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    finally:
        _empty_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
