"""The benchmark's four workloads: inputs made from a seed, and the items
one pass runs through the engine's public entry points.

Each workload is set up by :func:`set_up`, which returns a
:class:`Setup` holding the generated inputs, the engine and the ordered
list of items. An item runs once per pass and returns an
:class:`ItemRun`; its result is checked against plain pandas (or the
array entry point's own numpy check) outside the timed region.
"""
from __future__ import annotations

import gc
import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np
import pandas as pd

from repro import synth_data
from repro.engines import Outcome, XorbitsEngine
from repro.workloads import arrays
from repro.workloads.pipelines import PIPELINES
from repro.workloads.tpch import QUERIES

MIB = 1 << 20

#: why each workload is in the benchmark (the same lines as BENCHMARK.json)
WHY = {
    "tpch-local": "22 TPC-H-lite queries at SF0.1 that fit in memory: "
                  "planner-heavy, tiling and hot-key probing dominate",
    "tpch-tight": "7 join-heavy queries with 2 MiB chunks and 12 MiB bands: "
                  "many subtasks, shuffle merges, spills and reloads",
    "ds-ml": "3 DS pipelines at SF0.5 plus QR and LR: kernel-bound control "
             "that planner changes should not move",
    "tpch-spark": "4 queries at SF0.01 on SparkExecutor: the only workload "
                  "that pickles subtask specs and runs Spark jobs",
}

TIGHT_QUERIES = ["q03", "q07", "q10", "q12", "q18", "q19", "q21"]
SPARK_QUERIES = ["q01", "q07", "q18", "q21"]
TPCH_TABLES = ["lineitem", "orders", "customer", "part", "supplier",
               "partsupp", "nation", "region"]


def derive_seed(seed: int, name: str) -> int:
    """A stable per-input seed: the same workload seed always gives the
    same frames, and different inputs never share a random stream."""
    return zlib.crc32(f"{seed}:{name}".encode()) & 0x7FFFFFFF


def _generate(gen: Callable, sf: float, seed: int) -> pd.DataFrame:
    # The generators are lru-cached; call the undecorated function so that
    # repeated set-ups really generate and the process keeps no hidden copy.
    return getattr(gen, "__wrapped__", gen)(sf, seed)


def tpch_tables(sf: float, seed: int, names: list[str]) -> dict[str, pd.DataFrame]:
    return {
        name: _generate(getattr(synth_data, f"{name}_pdf"), sf,
                        derive_seed(seed, name))
        for name in names
    }


def pipeline_tables(sf: float, seed: int) -> dict[str, dict[str, pd.DataFrame]]:
    tx_seed = derive_seed(seed, "transactions")
    return {
        "tpcxai_uc10": {
            # the transactions generator sizes its Zipf key domain from the
            # customers table made with seed - 1; keep the pair consistent
            "transactions": _generate(synth_data.tpcxai_transactions_pdf, sf, tx_seed),
            "customers": _generate(synth_data.tpcxai_customers_pdf, sf, tx_seed - 1),
        },
        "census": {"census": _generate(synth_data.census_pdf, sf,
                                       derive_seed(seed, "census"))},
        "plasticc": {"plasticc": _generate(synth_data.plasticc_pdf, sf,
                                           derive_seed(seed, "plasticc"))},
    }


# -- counters read from public session state ----------------------------------

def snapshot(session) -> dict[str, int]:
    """Plan, executor and storage counters of one session, read before it
    is closed."""
    stats = session.stats
    merges = Counter(stats.merge_choices.values())
    reduces = Counter(stats.reduce_choices.values())
    peaks = [u.peak for u in session.storage.bands.values()]
    return {
        "plan.merge_broadcast": merges["broadcast"],
        "plan.merge_shuffle": merges["shuffle"],
        "plan.merge_skew": merges["skew"],
        "plan.reduce_tree": reduces["tree"],
        "plan.reduce_shuffle": reduces["shuffle"],
        "plan.auto_merges": stats.auto_merges,
        "tiling.yields": stats.yields,
        "tiling.probe_chunks": stats.probe_executions,
        "executor.subtasks": session.executor.tasks_executed,
        "executor.waves": session.executor.waves,
        "storage.spills": session.storage.spill_count,
        "peak_band_bytes": max(peaks, default=0),
    }


#: counters that depend only on the inputs and the plan, so every pass of
#: a run must repeat them exactly
PASS_INVARIANT = (
    "plan.merge_broadcast", "plan.merge_shuffle", "plan.merge_skew",
    "plan.reduce_tree", "plan.reduce_shuffle", "plan.auto_merges",
    "tiling.yields", "tiling.probe_chunks", "executor.subtasks",
    "executor.waves",
)


class ObservedXorbitsEngine(XorbitsEngine):
    """``XorbitsEngine`` that records its session's counters just before
    ``Engine.run_query`` closes the session."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.snapshots: list[dict[str, int]] = []

    def cleanup(self) -> None:
        if self.session is not None:
            self.snapshots.append(snapshot(self.session))
        super().cleanup()


# -- correctness ----------------------------------------------------------------

def _canon(obj: Any) -> pd.DataFrame:
    if isinstance(obj, pd.Series):
        obj = obj.to_frame()
    if not isinstance(obj, pd.DataFrame):
        return pd.DataFrame({"value": [obj]})
    # a default (unnamed) index carries chunk-local positions, not data
    meaningful = any(n is not None for n in obj.index.names)
    df = obj.reset_index(drop=not meaningful)
    df = df[sorted(df.columns, key=str)]
    if len(df) and len(df.columns):
        keys = df.apply(
            lambda s: s.round(6) if pd.api.types.is_float_dtype(s) else s
        )
        df = df.iloc[keys.sort_values(list(keys.columns), kind="mergesort").index]
    return df.reset_index(drop=True)


def frames_differ(got: Any, exp: Any) -> Optional[str]:
    """None when ``got`` equals the pandas reference ``exp`` up to row
    order and float round-off, else a one-line reason."""
    g, e = _canon(got), _canon(exp)
    if list(g.columns) != list(e.columns):
        return f"columns {list(g.columns)} != {list(e.columns)}"
    if len(g) != len(e):
        return f"{len(g)} rows != {len(e)}"
    try:
        pd.testing.assert_frame_equal(g, e, check_dtype=False, rtol=1e-6,
                                      atol=1e-8)
    except AssertionError as exc:
        return " ".join(str(exc).split())[:300]
    return None


# -- items ----------------------------------------------------------------------

@dataclass
class ItemRun:
    seconds: float  # the engine
    baseline_s: float  # plain pandas (or numpy) on the same inputs
    counts: dict[str, int]
    error: Optional[str] = None  # raised, or returned a wrong result


def _timed(fn: Callable, *args) -> tuple[float, Any]:
    gc.collect()  # start both sides of an item from the same heap state
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


class QueryItem:
    """One query or pipeline through ``Engine.run_query``, right after the
    same function on plain pandas over the same frames. The pandas result
    is the reference the engine's result is checked against."""

    def __init__(self, name: str, fn: Callable, tables: dict[str, pd.DataFrame],
                 engine: ObservedXorbitsEngine) -> None:
        self.name = name
        self.fn = fn
        self.tables = tables
        self.engine = engine

    def run(self) -> ItemRun:
        baseline_s, expected = _timed(self.fn, self.tables)
        seconds, res = _timed(self.engine.run_query, self.fn, self.tables,
                              self.name)
        counts = self.engine.snapshots.pop()
        if res.outcome is not Outcome.OK:
            error = f"{res.outcome.value}: {res.detail}"
        else:
            error = frames_differ(res.result, expected)
        return ItemRun(seconds, baseline_s, counts, error)


class ArrayItem:
    """QR or linear regression through ``repro.workloads.arrays``, right
    after the numpy routine it is checked against (``linalg.qr`` or
    ``linalg.lstsq``) on an input of the same shape.

    The entry point generates its input, times the engine work, and then
    checks the result with numpy (Q·R ≈ A and QᵀQ ≈ I; LR against
    ``lstsq``). The item time is that entry point's own clock, so input
    generation and the check stay outside the timed region."""

    def __init__(self, name: str, entry: str, shape: tuple[int, int],
                 seed: int, session_kw: dict, baseline: Callable,
                 baseline_shape: tuple[int, int]) -> None:
        self.name = name
        self.entry = entry
        self.shape = shape
        self.seed = seed
        self.session_kw = session_kw
        self.baseline = baseline
        self.baseline_shape = baseline_shape
        self._data = None

    def run(self) -> ItemRun:
        if self._data is None:  # made once, outside any timed region
            self._data = np.random.default_rng(self.seed).random(
                self.baseline_shape)
        baseline_s, _ = _timed(self.baseline, self._data)
        gc.collect()
        session = arrays.make_session(**self.session_kw)
        try:
            # looked up per call, so that a traced pass calls the wrapper
            res = getattr(arrays, self.entry)(session, *self.shape,
                                              seed=self.seed)
            counts = snapshot(session)
        finally:
            session.close()
        return ItemRun(res.seconds, baseline_s, counts,
                       None if res.ok else res.detail)


def _lstsq(z: np.ndarray):
    return np.linalg.lstsq(z[:, :-1], z[:, -1], rcond=None)


# -- set-up -------------------------------------------------------------------

@dataclass
class Setup:
    items: list
    inputs: dict[str, Any]  # input name -> frame, or (rows, bytes) of an array
    spark: Any = None
    closers: list = field(default_factory=list)

    def input_sizes(self) -> dict[str, dict[str, int]]:
        """Rows and bytes of every input; called outside the timed set-up."""
        out = {}
        for name, value in self.inputs.items():
            if isinstance(value, pd.DataFrame):
                value = (len(value),
                         int(value.memory_usage(index=True, deep=True).sum()))
            out[name] = {"rows": value[0], "bytes": value[1]}
        return out

    def close(self) -> None:
        for close in reversed(self.closers):
            close()
        self.closers.clear()


def _query_items(names: list[str], tables: dict[str, pd.DataFrame],
                 engine: ObservedXorbitsEngine) -> list[QueryItem]:
    return [
        QueryItem(q, QUERIES[q].fn, {t: tables[t] for t in QUERIES[q].tables}, engine)
        for q in names
    ]


def set_up(workload: str, seed: int, spark_factory: Callable = None) -> Setup:
    """Generate the inputs for ``seed`` and bring up the engine (and, for
    ``tpch-spark``, the Spark session from ``spark_factory``)."""
    if workload == "tpch-local":
        tables = tpch_tables(0.1, seed, TPCH_TABLES)
        engine = ObservedXorbitsEngine()
        return Setup(_query_items(sorted(QUERIES), tables, engine), tables)
    if workload == "tpch-tight":
        names = sorted({t for q in TIGHT_QUERIES for t in QUERIES[q].tables})
        tables = tpch_tables(0.1, seed, names)
        engine = ObservedXorbitsEngine(chunk_limit=2 * MIB, band_budget=12 * MIB)
        return Setup(_query_items(TIGHT_QUERIES, tables, engine), tables)
    if workload == "ds-ml":
        frames = pipeline_tables(0.5, seed)
        engine = ObservedXorbitsEngine()
        items: list = [
            QueryItem(name, PIPELINES[name].fn, frames[name], engine)
            for name in PIPELINES
        ]
        array_session = dict(n_workers=4, bands_per_worker=2,
                             chunk_limit=2 * MIB, band_budget=96 * MIB)
        qr_shape = (240_000, 32)
        lr_shape = (1_000_000, 16)
        items.append(ArrayItem("qr", "run_qr", qr_shape, derive_seed(seed, "qr"),
                               array_session, np.linalg.qr, qr_shape))
        # the LR baseline solves [X | y], as the entry point does
        items.append(ArrayItem("linear_regression", "run_linear_regression",
                               lr_shape, derive_seed(seed, "lr"), array_session,
                               _lstsq, (lr_shape[0], lr_shape[1] + 1)))
        inputs: dict[str, Any] = {}
        for tables in frames.values():
            inputs.update(tables)
        inputs["qr"] = (qr_shape[0], qr_shape[0] * qr_shape[1] * 8)
        inputs["linear_regression"] = (lr_shape[0], lr_shape[0] * (lr_shape[1] + 1) * 8)
        return Setup(items, inputs)
    if workload == "tpch-spark":
        names = sorted({t for q in SPARK_QUERIES for t in QUERIES[q].tables})
        tables = tpch_tables(0.01, seed, names)
        spark, stop = spark_factory()
        engine = ObservedXorbitsEngine(spark=spark)
        return Setup(_query_items(SPARK_QUERIES, tables, engine), tables,
                     spark=spark, closers=[stop])
    raise ValueError(f"unknown workload {workload!r}")


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))

