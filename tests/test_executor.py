"""Executor orchestration: fusion → scheduling → waves → store/free,
memory metering, hang model, and ablation equivalence."""
import numpy as np
import pandas as pd
import pytest

from repro.core.chunk import ChunkMeta, ChunkNode, payload_nbytes
from repro.core.config import EngineConfig
from repro.core.executor import LocalExecutor, SimulatedHang
from repro.core.meta import MetaService
from repro.core.operators.base import Operator
from repro.core.operators.dataframe import DataChunk, Elementwise
from repro.storage.service import SimulatedOOM, StorageLevel, StorageService


def make_executor(**cfg_kw):
    cfg = EngineConfig(**cfg_kw)
    storage = StorageService(band_memory_limit=cfg.band_memory_limit)
    return LocalExecutor(cfg, MetaService(), storage)


def source_chunk(df):
    return ChunkNode(op=DataChunk(df), inputs=[], meta=ChunkMeta.from_payload(df))


def ew(fn, *inputs):
    return ChunkNode(op=Elementwise(fn), inputs=list(inputs))


def frame(n=100, seed=0):
    g = np.random.default_rng(seed)
    return pd.DataFrame({"a": g.integers(0, 10, n), "b": g.random(n)})


class TestExecution:
    def test_simple_chain(self):
        ex = make_executor()
        df = frame()
        src = source_chunk(df)
        out = ew(lambda d: d.assign(c=d["a"] + 1), src)
        ex.execute([out])
        res = ex.storage.get(out.key)
        assert list(res["c"]) == list(df["a"] + 1)

    def test_metadata_recorded(self):
        ex = make_executor()
        src = source_chunk(frame(50))
        out = ew(lambda d: d[d["a"] > 5], src)
        ex.execute([out])
        meta = ex.meta.get(out.key)
        assert meta is not None and meta.shape is not None
        assert meta.shape[0] <= 50

    def test_idempotent_execution(self):
        ex = make_executor()
        src = source_chunk(frame())
        out = ew(lambda d: d, src)
        ex.execute([out])
        n = ex.tasks_executed
        ex.execute([out])  # already stored: no new tasks
        assert ex.tasks_executed == n

    def test_diamond_graph(self):
        ex = make_executor()
        src = source_chunk(frame())
        left = ew(lambda d: d[["a"]], src)
        right = ew(lambda d: d[["b"]], src)
        join = ChunkNode(
            op=Elementwise(lambda l, r: pd.concat([l, r], axis=1)),
            inputs=[left, right],
        )
        ex.execute([join])
        assert sorted(ex.storage.get(join.key).columns) == ["a", "b"]

    def test_intermediates_freed_targets_kept(self):
        ex = make_executor()
        src = source_chunk(frame())
        mid = ChunkNode(op=_NonFusable(), inputs=[src])
        out = ChunkNode(op=_NonFusable(), inputs=[mid])
        ex.execute([out])
        assert ex.storage.has(out.key)
        assert not ex.storage.has(mid.key)  # refcount freed

    def test_eager_engines_retain_intermediates(self):
        ex = make_executor(free_intermediates=False)
        src = source_chunk(frame())
        mid = ChunkNode(op=_NonFusable(), inputs=[src])
        out = ChunkNode(op=_NonFusable(), inputs=[mid])
        ex.execute([out])
        assert ex.storage.has(mid.key)  # Modin-style eager retention


class _NonFusable(Operator):
    no_fuse_in = True

    def execute_chunk(self, inputs, chunk):
        return inputs[0]


class TestMemoryModel:
    def test_transient_oom(self):
        ex = make_executor(band_memory_limit=1000)
        src = source_chunk(frame(5000))  # far above 1000 bytes
        out = ew(lambda d: d, src)
        with pytest.raises(SimulatedOOM):
            ex.execute([out])

    def test_fits_in_budget(self):
        ex = make_executor(band_memory_limit=10 << 20)
        src = source_chunk(frame(1000))
        out = ew(lambda d: d, src)
        ex.execute([out])  # no raise

    def test_hang_model(self):
        ex = make_executor(max_tasks=3)
        srcs = [source_chunk(frame(10, seed=i)) for i in range(10)]
        outs = [ChunkNode(op=_NonFusable(), inputs=[s]) for s in srcs]
        with pytest.raises(SimulatedHang):
            ex.execute(outs)


class TestAblationEquivalence:
    """Fusion toggles change the schedule, never the answer."""

    def _result(self, **cfg_kw):
        ex = make_executor(**cfg_kw)
        df = frame(200, seed=3)
        src = source_chunk(df)
        a = ew(lambda d: d.assign(c=d["a"] * 2), src)
        b = ew(lambda d: d[d["c"] > 4], a)
        out = ew(lambda d: d.assign(s=d["b"] + d["c"]), b)
        ex.execute([out])
        return ex, ex.storage.get(out.key)

    def test_fusion_off_same_result(self):
        _, fused = self._result(graph_fusion=True, operator_fusion=True)
        _, plain = self._result(graph_fusion=False, operator_fusion=False)
        pd.testing.assert_frame_equal(fused, plain)

    def test_graph_fusion_reduces_tasks(self):
        ex_on, _ = self._result(graph_fusion=True)
        ex_off, _ = self._result(graph_fusion=False)
        assert ex_on.tasks_executed < ex_off.tasks_executed

    def test_operator_fusion_only(self):
        _, a = self._result(graph_fusion=True, operator_fusion=True)
        _, b = self._result(graph_fusion=True, operator_fusion=False)
        pd.testing.assert_frame_equal(a, b)


class TestFreeing:
    def test_freeing_spilled_intermediate_does_not_reload_it(self):
        """A spilled intermediate whose consumers have all run is deleted
        where it lies: the only reads of spilled data are a subtask's own
        input gathering."""
        f = payload_nbytes(frame(2000))
        ex = make_executor(bands_per_worker=1, band_memory_limit=4 * f + 4096)
        store = ex.storage
        gathering = [False]
        reloads_outside_gather, deleted_on_disk = [], []
        get, delete, gather = store.get, store.delete, ex._gather_inputs

        def traced_get(key):
            if store.level_of(key) is StorageLevel.DISK and not gathering[0]:
                reloads_outside_gather.append(key)
            return get(key)

        def traced_delete(key):
            if store.has(key) and store.level_of(key) is StorageLevel.DISK:
                deleted_on_disk.append(key)
            delete(key)

        def traced_gather(spec):
            gathering[0] = True
            try:
                return gather(spec)
            finally:
                gathering[0] = False

        store.get, store.delete = traced_get, traced_delete
        ex._gather_inputs = traced_gather
        srcs = [source_chunk(frame(2000, seed=i)) for i in range(2)]
        mids = [ChunkNode(op=_NonFusable(), inputs=[s]) for s in srcs]
        outs = [ChunkNode(op=_NonFusable(), inputs=[m]) for m in mids]
        ex.execute(outs)

        mid_keys = {m.key for m in mids}
        assert mid_keys & set(deleted_on_disk)  # a spilled mid was freed
        assert not any(store.has(k) for k in mid_keys)
        assert reloads_outside_gather == []
        for o, s in zip(outs, srcs):
            pd.testing.assert_frame_equal(store.get(o.key), s.op.data)
