"""Merges forced onto the shuffle and skew paths, diffed against plain
pandas: single and two-column keys, key dtypes that differ between the
sides (or between chunks of one side), NaN/None and object-string keys,
duplicate keys on both sides, and every join type."""
import numpy as np
import pandas as pd
import pytest

from repro.core.config import EngineConfig
from repro.core.operators import dataframe as dfops
from repro.core.operators.dataframe import hash_keys, hash_partition
from repro.engines import XorbitsEngine
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession
from repro.synth_data import tpch_tables_pdf
from repro.workloads.tpch import QUERIES

# no side is ever broadcast; SHUFFLE never sees a hot key, SKEW always does
SHUFFLE = dict(broadcast_threshold=1, skew_key_limit=1 << 40)
SKEW = dict(broadcast_threshold=1, skew_key_limit=2_000)


def session(**kw):
    defaults = dict(chunk_limit=10_000, n_workers=2, bands_per_worker=2)
    defaults.update(kw)
    return XSession(EngineConfig(**defaults))


def canon(obj):
    """Row- and column-order-free form of a frame or series; a named
    index becomes columns, floats are rounded."""
    if isinstance(obj, pd.Series):
        obj = obj.to_frame()
    meaningful = any(n is not None for n in obj.index.names)
    df = obj.reset_index(drop=not meaningful)
    df = df[sorted(df.columns, key=str)]
    df = df.apply(lambda s: s.round(6) if pd.api.types.is_float_dtype(s) else s)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def check(got, exp):
    pd.testing.assert_frame_equal(canon(got), canon(exp), check_dtype=False, rtol=1e-6)


def key_column(base, kind, g):
    """Key values of one ``kind`` from the integers ``base``."""
    if kind.startswith("str"):
        col = np.array([f"s{x}" for x in base], dtype=object)
    else:
        col = base.astype(kind.split("+")[0])
    if kind.endswith("+nan"):
        nulls = np.flatnonzero((base != 0) & (g.random(len(base)) < 0.08))
        col[nulls[: len(nulls) // 2]] = np.nan
        if kind.startswith("str"):
            col[nulls[len(nulls) // 2:]] = None
    return col


def side(n, keys, seed, value, hot_frac):
    """A frame with key columns ``keys`` = [(name, kind)]; a share
    ``hot_frac`` of its rows carries the all-zero key in every column."""
    g = np.random.default_rng(seed)
    hot = g.random(n) < hot_frac
    data = {}
    for i, (name, kind) in enumerate(keys):
        base = g.integers(-50, 250, n) if i == 0 else g.integers(0, 4, n)
        base[hot] = 0
        data[name] = key_column(base, kind, g)
    data[value] = g.random(n).round(6)
    return pd.DataFrame(data)


# name -> [(column, left kind, right kind)]
KEYS = {
    "int64": [("k", "int64", "int64")],
    "int32-int64": [("k", "int32", "int64")],
    "int64-float64": [("k", "int64", "float64")],
    "float-nan": [("k", "float64+nan", "float64+nan")],
    "str-none-nan": [("k", "str+nan", "str+nan")],
    "two-col": [("k", "int64", "int64"), ("s", "str", "str")],
    "two-col-int-float": [("k", "int64", "float64"), ("j", "int32", "int64")],
    "two-col-nan": [("k", "float64+nan", "float64+nan"), ("s", "str+nan", "str+nan")],
}


def frames(case):
    spec = KEYS[case]
    left = side(3000, [(c, lk) for c, lk, _ in spec], 1, "v", hot_frac=0.3)
    right = side(800, [(c, rk) for c, _, rk in spec], 2, "w", hot_frac=0.0)
    return left, right, [c for c, _, _ in spec]


def xmerge(sess, left, right, **kw):
    out = xpd.from_pandas(left, sess).merge(xpd.from_pandas(right, sess), **kw)
    return out.to_pandas(), list(sess.stats.merge_choices.values())


@pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
@pytest.mark.parametrize("case", sorted(KEYS))
@pytest.mark.parametrize("mode", ["shuffle", "skew"])
def test_merge_matches_pandas(mode, case, how):
    left, right, on = frames(case)
    sess = session(**(SHUFFLE if mode == "shuffle" else SKEW))
    got, choices = xmerge(sess, left, right, on=on, how=how)
    exp = left.merge(right, on=on, how=how)
    # an outer join has no skew path: it would duplicate unmatched hot rows
    assert choices == ["shuffle" if how == "outer" else mode]
    assert len(exp) > len(left) // 2  # the keys really meet
    check(got, exp)


def test_left_on_right_on_across_dtypes():
    left, right, _ = frames("two-col-int-float")
    right = right.rename(columns={"k": "rk", "j": "rj"})
    sess = session(**SKEW)
    got, choices = xmerge(sess, left, right, left_on=["k", "j"], right_on=["rk", "rj"])
    assert choices == ["skew"]
    check(got, left.merge(right, left_on=["k", "j"], right_on=["rk", "rj"]))


def test_int_float_keys_keep_every_match():
    """4 000 rows a side, keys 0..999 four times each, int64 against
    float64: every key meets four rows on the other side."""
    sess = session(broadcast_threshold=1_000)
    a = pd.DataFrame({"k": np.arange(4000) % 1000, "v": np.arange(4000.0)})
    b = pd.DataFrame({"k": (np.arange(4000) % 1000).astype("float64"),
                      "w": np.arange(4000.0)})
    got, choices = xmerge(sess, a, b, on="k")
    assert choices == ["shuffle"]
    assert len(got) == 16_000
    check(got, a.merge(b, on="k"))


def _promoted_key_frames():
    """``w`` from a broadcast left join: int64 in the chunks where every
    row matched, float64 (with NaN) in the chunks where some did not."""
    k = np.arange(3000)
    base = pd.DataFrame({"g": np.where(k < 1200, k % 120, k % 150), "v": k / 7})
    lookup = pd.DataFrame({"g": np.arange(120), "w": np.arange(120) % 40})
    other = pd.DataFrame({"w": np.arange(1000) % 40, "z": np.arange(1000.0)})
    return base, lookup, other


def test_key_dtype_differs_between_chunks_of_one_side():
    base, lookup, other = _promoted_key_frames()
    sess = session(broadcast_threshold=5_000)
    joined = xpd.from_pandas(base, sess).merge(xpd.from_pandas(lookup, sess),
                                               on="g", how="left")
    got = joined.merge(xpd.from_pandas(other, sess), on="w").to_pandas()
    assert list(sess.stats.merge_choices.values()) == ["broadcast", "shuffle"]
    exp = base.merge(lookup, on="g", how="left").merge(other, on="w")
    check(got, exp)


def test_groupby_shuffle_when_key_dtype_differs_between_chunks():
    base, lookup, _ = _promoted_key_frames()
    sess = session(broadcast_threshold=5_000)
    joined = xpd.from_pandas(base, sess).merge(xpd.from_pandas(lookup, sess),
                                               on="g", how="left")
    got = joined.groupby("w").agg({"v": "median"}).to_pandas()
    assert "shuffle" in sess.stats.reduce_choices.values()
    exp = base.merge(lookup, on="g", how="left").groupby("w").agg({"v": "median"})
    check(got, exp)


class TestHashAcrossDtypes:
    @pytest.mark.parametrize("other", ["int32", "float64", "float32", "uint16"])
    def test_equal_keys_same_bucket(self, other):
        keys = np.arange(0, 500) % 97
        a = pd.DataFrame({"k": keys.astype("int64"), "v": 1.0})
        b = pd.DataFrame({"k": keys.astype(other), "w": 2.0})
        pa, pb = hash_partition(a, ["k"], 8), hash_partition(b, ["k"], 8)
        for r in range(8):
            assert set(pa[r]["k"]) == set(pb[r]["k"])

    def test_negative_int32_and_int64_same_hash(self):
        a = pd.DataFrame({"k": np.arange(-300, 300, dtype="int64")})
        b = pd.DataFrame({"k": np.arange(-300, 300, dtype="int32")})
        assert (hash_keys(a, ["k"]) == hash_keys(b, ["k"])).all()

    def test_two_columns_mixed_dtypes(self):
        g = np.random.default_rng(0)
        a = pd.DataFrame({"k": g.integers(-9, 99, 400), "j": g.integers(0, 5, 400)})
        b = a.astype({"k": "float64", "j": "int32"})
        assert (hash_keys(a, ["k", "j"]) == hash_keys(b, ["k", "j"])).all()

    def test_signed_zero_and_nan_payloads(self):
        nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        a = pd.DataFrame({"k": [0.0, np.nan, 2.5]})
        b = pd.DataFrame({"k": [-0.0, nan2, 2.5]})
        assert (hash_keys(a, ["k"]) == hash_keys(b, ["k"])).all()

    def test_int64_and_object_keys_hash_as_pandas(self):
        df = pd.DataFrame({"k": np.arange(200), "s": [f"x{i % 7}" for i in range(200)]})
        for c in ("k", "s"):
            exp = pd.util.hash_pandas_object(df[c], index=False).to_numpy()
            assert (hash_keys(df, [c]) == exp).all()


class TestHotKeyProbing:
    """Hot-key counting runs only where a shuffle uses its result."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        real = dfops._detect_hot_keys

        def counting(*args):
            counter.append(1)
            return real(*args)

        monkeypatch.setattr(dfops, "_detect_hot_keys", counting)
        return counter

    def test_broadcast_merge_skips_probing(self, calls):
        sess = session(broadcast_threshold=50_000)
        big = pd.DataFrame({"k": np.arange(5000) % 50, "v": np.arange(5000.0)})
        small = pd.DataFrame({"k": np.arange(50), "w": np.arange(50.0)})
        _, choices = xmerge(sess, big, small, on="k")
        assert choices == ["broadcast"]
        assert len(calls) == 0

    def test_shuffle_merge_probes_once(self, calls):
        left, right, on = frames("int64")
        _, choices = xmerge(session(**SHUFFLE), left, right, on=on)
        assert choices == ["shuffle"]
        assert len(calls) == 1


@pytest.fixture(scope="module")
def tpch_tables():
    return tpch_tables_pdf(0.002)


@pytest.mark.parametrize("qname", sorted(QUERIES))
def test_tpch_on_shuffle_path_matches_pandas(qname, tpch_tables):
    """Every join shuffles (nothing is small enough to broadcast), so the
    multi-column joins of q09 and q20 go through ``hash_partition``."""
    q = QUERIES[qname]
    tables = {k: tpch_tables[k] for k in q.tables}
    res = XorbitsEngine(band_budget=None, chunk_limit=64_000,
                        broadcast_threshold=1).run_query(q.fn, tables, name=qname)
    assert res.outcome.value == "ok", f"{qname}: {res.detail}"
    exp = q.fn({k: v.copy() for k, v in tables.items()})
    check(res.result, exp)
