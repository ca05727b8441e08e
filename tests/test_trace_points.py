"""The benchmark's layer spans (``perfbench/tracing.py``) wrap the
engine's public functions by name. These tests keep those names in place,
so a refactor cannot silently leave a traced run without its spans."""
import importlib
import importlib.util
import os
import sys

import numpy as np
import pandas as pd
import pytest

from repro.core.executor import BaseExecutor, LocalExecutor, SparkExecutor

TRACING_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "tracing.py",
)


@pytest.fixture(scope="module")
def tracing():
    """Import ``perfbench/tracing.py`` without writing next to it."""
    name = "perfbench_tracing"
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(name, TRACING_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        sys.modules.pop(name, None)
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def test_every_trace_target_resolves(tracing):
    for module_name, path, _layer in tracing._TARGETS:
        assert callable(_resolve(module_name, path)), (module_name, path)


@pytest.mark.parametrize("cls", [LocalExecutor, SparkExecutor])
def test_executors_do_not_override_execute(cls):
    # the tracer wraps BaseExecutor.execute; an override would bypass it
    assert "execute" not in vars(cls)
    assert cls.execute is BaseExecutor.execute


def test_traced_query_records_every_local_layer(tracing):
    from repro.engines.base import Outcome
    from repro.engines.engines import XorbitsEngine

    left = pd.DataFrame({"k": np.arange(400) % 40, "v": np.arange(400.0)})
    right = pd.DataFrame({"k": np.arange(40), "w": np.arange(40) * 2})

    def query(t):
        m = t["left"].merge(t["right"], on="k")
        return m.groupby("k").agg({"v": "sum", "w": "max"})

    tracer = tracing.Tracer()
    engine = XorbitsEngine(chunk_limit=4096)
    with tracer.installed():
        tracer.item = "0:q"
        result = engine.run_query(query, {"left": left, "right": right})
    assert result.outcome is Outcome.OK, result.detail
    expected = query({"left": left, "right": right})
    pd.testing.assert_frame_equal(
        result.result.sort_index(), expected)
    layers = {s.layer for s in tracer.spans}
    assert {"engine.run_query", "engine.materialize", "session.run",
            "tiling", "executor", "fusion", "scheduler", "executor.kernel",
            "storage.put", "storage.get"} <= layers
    # the wrappers are gone once the block ends
    assert BaseExecutor.__dict__["execute"].__name__ == "execute"
    assert not hasattr(BaseExecutor.execute, "__wrapped__")
