"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer at module or
class level while it is installed, and records one span per call: layer
name, start, end, the id of the enclosing span, the id of the item the
call belongs to, and the time covered by child spans. Spans stay in
memory; :meth:`Tracer.pass_layers` folds one pass into per-layer totals
and self times (the part of a layer's time that no child span covers).
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.storage.service import StorageLevel

_MISSING = object()


@dataclass
class Span:
    id: int
    parent: Optional[int]
    item: str
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


# (module, attribute path, layer); a layer of None is decided per call
_TARGETS = [
    ("repro.engines.base", "Engine.run_query", "engine.run_query"),
    ("repro.engines.engines", "XorbitsEngine.materialize", "engine.materialize"),
    ("repro.frontend.session", "XSession.run", "session.run"),
    ("repro.core.tiling", "GraphTiler.tile", "tiling"),
    ("repro.core.executor", "BaseExecutor.execute", None),
    ("repro.core.executor", "build_subtask_graph", "fusion"),
    ("repro.core.scheduler", "Scheduler.assign", "scheduler"),
    ("repro.core.executor", "run_subtask", "executor.kernel"),
    ("repro.storage.service", "StorageService.put", "storage.put"),
    ("repro.storage.service", "StorageService.get", "storage.get"),
    ("repro.workloads.arrays", "run_qr", "workloads.arrays"),
    ("repro.workloads.arrays", "run_linear_regression", "workloads.arrays"),
]
_SPARK_TARGETS = [
    ("pyspark.rdd", "RDD.collect", "spark.job"),
    ("pyspark.context", "SparkContext.parallelize", "spark.ship"),
]


class Tracer:
    def __init__(self, spark: bool = False) -> None:
        self.spans: list[Span] = []
        self.item = ""
        self._stack: list[Span] = []
        self._next_id = 0
        self._targets = _TARGETS + (_SPARK_TARGETS if spark else [])

    # -- spans ----------------------------------------------------------
    def begin(self, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, self.item, layer, perf_counter())
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.seconds
        self.spans.append(span)

    def _in_layer(self, layer: str) -> bool:
        return any(s.layer == layer for s in self._stack)

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, orig: Callable, layer: Optional[str]) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            name = layer
            attrs = {}
            if layer is None:
                # an execute nested in tiling is a probe (Fig. 5a step 2)
                name = "tiling.probe" if tracer._in_layer("tiling") else "executor"
            elif name == "storage.get":
                store, key = args[0], args[1]
                attrs["reload"] = (store.has(key)
                                   and store.level_of(key) is StorageLevel.DISK)
            elif name == "spark.ship" and isinstance(args[1], list):
                attrs.update(tracer._measure_shipment(args[1]))
            span = tracer.begin(name)
            span.attrs = attrs
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(span)
            if name == "fusion":
                span.attrs = {"chunks": len(args[0]), "subtasks": len(out[1])}
            return out

        return traced

    def _measure_shipment(self, items: list) -> dict:
        """Pickled size of the items one Spark job ships, timed in its own
        span so that the measurement counts as tracing overhead."""
        from pyspark import cloudpickle

        span = self.begin("trace.measure")
        try:
            nbytes = sum(len(cloudpickle.dumps(it)) for it in items)
        finally:
            self.end(span)
        return {"tasks": len(items), "bytes": nbytes}

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore afterwards.

        ``functools.wraps`` gives a wrapper the name and module of the
        function it replaces, and the wrapper is what the module holds while
        installed, so cloudpickle ships a wrapped module function by
        reference and Spark workers run the original."""
        saved = []
        try:
            for module_name, path, layer in self._targets:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, self._wrap(getattr(owner, attr), layer))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                if value is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)

    # -- folding ----------------------------------------------------------
    def pass_spans(self, pass_no: int) -> list[Span]:
        prefix = f"{pass_no}:"
        return [s for s in self.spans if s.item.startswith(prefix)]

    @staticmethod
    def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds (the remainder
        that no child span accounts for)."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s in spans:
            row = table[s.layer]
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.self_s
        return dict(table)

    @staticmethod
    def pass_layers(spans: list[Span]) -> dict[str, float]:
        """The per-layer metrics of one pass."""
        t = Tracer.layer_table(spans)

        def self_s(layer):
            return t.get(layer, {}).get("self_s", 0.0)

        def calls(layer):
            return int(t.get(layer, {}).get("calls", 0))

        fusion = [s.attrs for s in spans if s.layer == "fusion"]
        gets = [s for s in spans if s.layer == "storage.get"]
        reloads = [s for s in gets if s.attrs.get("reload")]
        ships = [s.attrs for s in spans if s.layer == "spark.ship"]
        tasks = sum(a.get("tasks", 0) for a in ships)
        shipped_mib = sum(a.get("bytes", 0) for a in ships) / (1 << 20)
        subtasks = sum(a["subtasks"] for a in fusion)
        return {
            "frontend.build_s": self_s("engine.run_query"),
            "engine.materialize_s": self_s("engine.materialize"),
            "session.fetch_s": self_s("session.run"),
            "tiling.s": self_s("tiling"),
            "tiling.probe_s": t.get("tiling.probe", {}).get("total_s", 0.0),
            "fusion.s": self_s("fusion"),
            "fusion.chunks_per_subtask": (
                sum(a["chunks"] for a in fusion) / subtasks if subtasks else 0.0),
            "scheduler.s": self_s("scheduler"),
            "executor.loop_s": self_s("executor") + self_s("tiling.probe"),
            "executor.kernel_s": self_s("executor.kernel"),
            "storage.puts": calls("storage.put"),
            "storage.gets": len(gets),
            "storage.put_s": self_s("storage.put"),
            "storage.get_s": self_s("storage.get"),
            "storage.reloads": len(reloads),
            "storage.reload_s": sum(s.self_s for s in reloads),
            "spark.jobs": calls("spark.job"),
            "spark.tasks": tasks,
            "spark.job_s": self_s("spark.job"),
            "spark.ship_s": self_s("spark.ship"),
            "spark.shipped_mib": shipped_mib,
            "spark.shipped_mib_per_task": shipped_mib / tasks if tasks else 0.0,
        }
