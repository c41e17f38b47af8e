"""Tests for the distributed Gram substrate (repro.core.gram)."""
from __future__ import annotations

import datetime as dt
import math
from decimal import Decimal

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as Fn

from repro.core import gram
from repro.core.discovery import discover
from repro.core.gram import (
    _merge,
    _moments_of,
    augmented_gram,
    gram_pass,
    grouped_augmented_gram,
    numeric_columns,
)
from repro.core.projections import augmented_factor
from repro.core.scoring import average_violation
from repro.datasets.airlines import FEATURE_COLS, TARGET, airlines_pdf
from repro.explain.extune import responsibilities
from repro.ml.linreg import fit_ols, mae
from repro.oracle import assert_equivalent
from tests.helpers import (
    augmented,
    frame_moments,
    linear_pdf,
    numpy_aug_gram,
    on_executors,
    piecewise_pdf,
    random_unit_vectors,
    spark_frame,
)


@pytest.mark.parametrize("n,seed", [(1, 0), (7, 1), (200, 2), (1000, 3)])
def test_gram_matches_numpy(spark, n, seed):
    pdf = linear_pdf(n=n, seed=seed)
    df = spark.createDataFrame(pdf)
    res = augmented_gram(df, ["a", "b", "c"])
    n_ref, g_ref = numpy_aug_gram(pdf, ["a", "b", "c"])
    assert res.n == n_ref
    np.testing.assert_allclose(augmented(res), g_ref, rtol=1e-9, atol=1e-6)
    r = augmented_factor(res)
    np.testing.assert_allclose(r.T @ r, g_ref, rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize(
    "parts,offset",
    [pytest.param(p, 0.0, id=str(p)) for p in (1, 3, 16)]
    + [pytest.param(p, 1e7, id=f"{p}-offset1e7") for p in (1, 3, 16)],
)
def test_gram_partition_invariant(spark, parts, offset):
    """However the rows are split, the merged mean, covariance and
    projection sigmas are those of the whole frame, also far from 0.  The
    sigma of the planted invariant (0.03 next to columns at 1e7) may also
    differ by the data's resolution, ulp(1e7): a mean at 1e7 holds no finer
    digit, and the pairwise merges multiply its rounding by the mean gaps."""
    cols = ["a", "b", "c"]
    pdf = linear_pdf(n=400, seed=4) + offset
    df = spark.createDataFrame(pdf).repartition(parts)
    res = augmented_gram(df, cols)
    _, g_ref = numpy_aug_gram(pdf, cols)
    np.testing.assert_allclose(augmented(res), g_ref, rtol=1e-9, atol=1e-6)
    ref = frame_moments(pdf, cols)
    np.testing.assert_allclose(res.mean, ref.mean, rtol=1e-9)
    np.testing.assert_allclose(res.cov(), ref.cov(), rtol=1e-9)
    for w in random_unit_vectors(3, 5, seed=4):
        assert res.projection_moments(w)[1] == pytest.approx(
            ref.projection_moments(w)[1], rel=1e-9
        )
    invariant = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    assert res.projection_moments(invariant)[1] == pytest.approx(
        ref.projection_moments(invariant)[1], rel=1e-9, abs=np.spacing(offset)
    )


def test_gram_default_columns(spark):
    pdf = linear_pdf(n=50)
    pdf["label"] = "x"
    df = spark.createDataFrame(pdf)
    res = augmented_gram(df)
    assert res.cols == ("a", "b", "c")


def test_gram_is_symmetric_psd(spark):
    df = spark.createDataFrame(linear_pdf(n=300, seed=5))
    res = augmented_gram(df, ["a", "b", "c"])
    g = augmented(res)
    np.testing.assert_allclose(g, g.T)
    eigvals = np.linalg.eigvalsh(g)
    assert eigvals.min() >= -1e-6
    r = augmented_factor(res)
    np.testing.assert_allclose(r.T @ r, g, rtol=1e-9, atol=1e-6)


def test_gram_drops_nan_rows(spark):
    pdf = linear_pdf(n=100, seed=6)
    pdf.loc[::10, "b"] = np.nan
    clean = pdf.dropna()
    n_ref, g_ref = numpy_aug_gram(clean, ["a", "b", "c"])
    for df in (spark_frame(spark, pdf), spark.createDataFrame(pdf)):  # NaN, then null
        res = augmented_gram(df, ["a", "b", "c"])
        assert res.n == n_ref
        np.testing.assert_allclose(augmented(res), g_ref, rtol=1e-9, atol=1e-6)
    # An empty record merges as a no-op, and a partition whose rows all have
    # a NaN changes nothing.
    r = _moments_of(clean[["a", "b", "c"]].to_numpy())
    empty = (0, np.zeros(3), np.zeros((3, 3)))
    for merged in (_merge(empty, r), _merge(r, empty)):
        assert merged[0] == r[0] and (merged[1] == r[1]).all() and (merged[2] == r[2]).all()
    chunks = [clean.iloc[:45], pdf[pdf["b"].isna()], clean.iloc[45:]]
    rdd = spark.sparkContext.parallelize([list(c.itertuples(index=False)) for c in chunks], 3)
    df = spark.createDataFrame(rdd.flatMap(lambda rows: rows), "a double, b double, c double")
    nan_part = df.select(Fn.spark_partition_id().alias("p"), Fn.isnan("b").alias("nan"))
    assert nan_part.toPandas().groupby("p")["nan"].all().tolist() == [False, True, False]
    res = augmented_gram(df, ["a", "b", "c"])
    ref = frame_moments(clean, ["a", "b", "c"])
    assert res.n == ref.n
    np.testing.assert_allclose(res.mean, ref.mean, rtol=1e-12)
    np.testing.assert_allclose(res.scatter, ref.scatter, rtol=1e-12)


def test_moments_keep_exactly_the_rows_of_finite_values():
    """A row with a NaN or ±inf is dropped; a row of finite values whose sum
    overflows is kept."""
    x = np.array([[1.0, 2.0], [np.inf, 0.0], [1e308, 1e308], [-np.inf, np.nan], [3.0, -1.0]])
    with np.errstate(over="ignore", invalid="ignore"):  # the kept row's scatter overflows
        n, mean, _ = _moments_of(x)
    assert n == 3
    np.testing.assert_allclose(mean, x[[0, 2, 4]].mean(axis=0))


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_a_dropped_row_leaves_the_others_bits(layout):
    """A batch with a row of non-finite values gives the bits of the same
    batch, in the same memory layout, without that row: BLAS sums a C- and a
    Fortran-ordered matrix in different orders, and Arrow hands the kernel
    Fortran-ordered batches while boolean indexing returns C order."""
    x = np.random.default_rng(3).normal(1e3, 1.0, (500, 5))
    broken = x.copy()
    broken[7, 2] = np.inf
    got, want = _moments_of(layout(broken)), _moments_of(layout(np.delete(x, 7, axis=0)))
    assert got[0] == want[0] and (got[1] == want[1]).all() and (got[2] == want[2]).all()


def test_gram_requires_columns(spark):
    df = spark.createDataFrame(pd.DataFrame({"s": ["a", "b"]}))
    with pytest.raises(ValueError):
        augmented_gram(df)


def test_gram_entries_against_duckdb_oracle(spark):
    """The Gram entries, the means and the covariance are plain SQL
    aggregates — check them with DuckDB, also on columns far from 0."""
    for offset in (0.0, 1e7):
        pdf = linear_pdf(n=250, seed=8) + offset
        res = augmented_gram(spark.createDataFrame(pdf).repartition(3), ["a", "b"])
        g, cov = augmented(res), res.cov()
        got = {
            "n": float(res.n),
            "sum_a": g[0, 1],
            "sum_b": g[0, 2],
            "sum_aa": g[1, 1],
            "sum_ab": g[1, 2],
            "sum_bb": g[2, 2],
            "avg_a": res.mean[0],
            "avg_b": res.mean[1],
            "cov_aa": cov[0, 0],
            "cov_ab": cov[0, 1],
            "cov_bb": cov[1, 1],
        }
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame({k: [v] for k, v in got.items()})),
            """
            SELECT CAST(count(*) AS DOUBLE) AS n,
                   sum(a) AS sum_a, sum(b) AS sum_b,
                   sum(a*a) AS sum_aa, sum(a*b) AS sum_ab, sum(b*b) AS sum_bb,
                   avg(a) AS avg_a, avg(b) AS avg_b,
                   covar_pop(a, a) AS cov_aa, covar_pop(a, b) AS cov_ab,
                   covar_pop(b, b) AS cov_bb
            FROM d
            """,
            d=pdf,
        )


def test_projection_moments_match_direct(spark):
    pdf = linear_pdf(n=500, seed=9)
    df = spark.createDataFrame(pdf)
    res = augmented_gram(df, ["a", "b", "c"])
    g = np.random.default_rng(10)
    for _ in range(10):
        w = g.normal(size=3)
        mean, std = res.projection_moments(w)
        f = pdf[["a", "b", "c"]].to_numpy() @ w
        assert mean == pytest.approx(f.mean(), rel=1e-9)
        assert std == pytest.approx(f.std(), rel=1e-6, abs=1e-9)


def test_column_means(spark):
    pdf = linear_pdf(n=123, seed=11)
    df = spark.createDataFrame(pdf)
    res = augmented_gram(df, ["a", "b", "c"])
    np.testing.assert_allclose(
        res.mean, pdf[["a", "b", "c"]].mean().to_numpy(), rtol=1e-9
    )


def test_grouped_gram_matches_per_group_numpy(spark):
    pdf = piecewise_pdf(n_per=120, seed=12)
    df = spark.createDataFrame(pdf).repartition(8)
    grouped = grouped_augmented_gram(df, "grp", ["x", "y"])
    assert set(grouped) == {"g0", "g1", "g2"}
    for v, res in grouped.items():
        sub = pdf[pdf.grp == v]
        n_ref, g_ref = numpy_aug_gram(sub, ["x", "y"])
        assert res.n == n_ref
        np.testing.assert_allclose(augmented(res), g_ref, rtol=1e-9, atol=1e-6)


def test_grouped_gram_sums_to_global(spark):
    pdf = piecewise_pdf(n_per=80, seed=13)
    df = spark.createDataFrame(pdf)
    grouped = grouped_augmented_gram(df, "grp", ["x", "y"])
    total = sum(augmented(r) for r in grouped.values())
    res = augmented_gram(df, ["x", "y"])
    np.testing.assert_allclose(total, augmented(res), rtol=1e-9, atol=1e-6)
    assert sum(r.n for r in grouped.values()) == res.n


def test_grouped_gram_counts_against_duckdb_oracle(spark):
    pdf = piecewise_pdf(n_per=60, seed=14)
    df = spark.createDataFrame(pdf)
    grouped = grouped_augmented_gram(df, "grp", ["x", "y"])
    got = spark.createDataFrame(
        pd.DataFrame(
            {"grp": sorted(grouped), "cnt": [grouped[v].n for v in sorted(grouped)]}
        )
    )
    assert_equivalent(
        got,
        "SELECT grp, CAST(count(*) AS BIGINT) AS cnt FROM d GROUP BY grp",
        d=pdf,
    )


def test_grouped_gram_integer_attr_keys(spark):
    pdf = linear_pdf(n=90, seed=15)
    pdf["k"] = (np.arange(len(pdf)) % 3).astype("int64")
    df = spark.createDataFrame(pdf)
    grouped = grouped_augmented_gram(df, "k", ["a", "b"])
    assert set(grouped) == {"0", "1", "2"}
    assert sum(r.n for r in grouped.values()) == len(pdf)


def test_numeric_columns_type_filter(spark):
    pdf = pd.DataFrame(
        {
            "i": np.array([1, 2], dtype="int32"),
            "l": np.array([1, 2], dtype="int64"),
            "f": np.array([1.0, 2.0], dtype="float32"),
            "d": np.array([1.0, 2.0], dtype="float64"),
            "s": ["a", "b"],
            "t": pd.to_datetime(["2020-01-01", "2020-01-02"]),
        }
    )
    df = spark.createDataFrame(pdf)
    assert numeric_columns(df) == ["i", "l", "f", "d"]


TestOnExecutors = on_executors(
    test_gram_matches_numpy,
    test_gram_partition_invariant,
    test_gram_default_columns,
    test_gram_is_symmetric_psd,
    test_gram_drops_nan_rows,
    test_gram_requires_columns,
    test_gram_entries_against_duckdb_oracle,
    test_projection_moments_match_direct,
    test_column_means,
    test_grouped_gram_matches_per_group_numpy,
    test_grouped_gram_sums_to_global,
    test_grouped_gram_counts_against_duckdb_oracle,
    test_grouped_gram_integer_attr_keys,
)

# ---------------------------------------------------------------------------
# where a pass runs: the driver for a small plan, else the executors
# ---------------------------------------------------------------------------

#: Every switch type, as (DDL type, the values row k takes, cycling); the
#: double one includes NaN.  Each column is null on its own rows.
_SWITCHES = {
    "s": ("string", ["a", "b", "c"]),
    "i": ("bigint", [0, 1, 2]),
    "b": ("boolean", [True, False]),
    "f": ("float", [0.1, 7.5e7, 123456790.0]),
    "d": ("double", [0.5, float("nan"), -0.0, 1e16]),
    "dec": ("decimal(10,2)", [Decimal("1.25"), Decimal("-3.50"), Decimal("0.00")]),
    "day": ("date", [dt.date(2020, 1, 1), dt.date(2020, 2, 29)]),
    "ts": ("timestamp", [dt.datetime(2020, 1, 1, 8), dt.datetime(2020, 1, 2, 9, 30, 0, 500000)]),
}


def _every_switch_type(spark, n: int = 240):
    g = np.random.default_rng(20)
    x, y = g.normal(size=(2, n))
    y[5], y[9] = np.nan, np.inf  # rows that every Gram over y drops
    rows = [
        (float(x[k]), float(y[k]))
        + tuple(
            None if (k + j) % 7 == 0 else v[k % len(v)]
            for j, (_, v) in enumerate(_SWITCHES.values())
        )
        for k in range(n)
    ]
    schema = ", ".join(["x double", "y double"] + [f"{a} {t}" for a, (t, _) in _SWITCHES.items()])
    return spark.createDataFrame(rows, schema).repartition(3)


@pytest.mark.parametrize("arrow", [True, False], ids=["arrow", "no-arrow"])
def test_runners_agree_on_every_switch_type(spark, monkeypatch, arrow):
    """The driver and the executors run the same kernel on the same rows:
    the same branch keys, counts and distinct counts for every switch type
    with nulls, and moments and mean violations equal up to the order of the
    merges, whether ``toPandas`` converts through Arrow or not."""
    df = _every_switch_type(spark)
    attrs = list(_SWITCHES)
    previous = spark.conf.get("spark.sql.execution.arrow.pyspark.enabled")
    spark.conf.set("spark.sql.execution.arrow.pyspark.enabled", str(arrow).lower())
    try:
        runs = {}
        for runner, limit in (("driver", math.inf), ("executors", -1)):
            monkeypatch.setattr(gram, "LOCAL_PASS_BYTES", limit)
            passed = gram_pass(df, ["x", "y"], {a: ["x", "y"] for a in attrs})
            c = discover(df, cols=["x", "y"], partition_attrs=attrs)
            runs[runner] = passed, average_violation(df, c), responsibilities(df, c, ["x", "y"])
    finally:
        spark.conf.set("spark.sql.execution.arrow.pyspark.enabled", previous)
    (here, v_here, r_here), (there, v_there, r_there) = runs["driver"], runs["executors"]
    distinct = {"s": 3, "i": 3, "b": 2, "f": 3, "d": 3, "dec": 3, "day": 2, "ts": 2}
    assert here.distinct == there.distinct == distinct  # NaN is no key
    assert here.total.n == there.total.n == 238
    for a in attrs:
        assert set(here.grouped[a]) == set(there.grouped[a])
        for key, r in here.grouped[a].items():
            other = there.grouped[a][key]
            assert r.n == other.n
            np.testing.assert_allclose(r.mean, other.mean, rtol=1e-12)
            np.testing.assert_allclose(r.scatter, other.scatter, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(here.total.mean, there.total.mean, rtol=1e-12)
    np.testing.assert_allclose(here.total.scatter, there.total.scatter, rtol=1e-10)
    assert v_here == pytest.approx(v_there, rel=1e-12)
    pd.testing.assert_series_equal(r_here, r_there, rtol=1e-12)


def _plan_bytes(df) -> int:
    return df._jdf.queryExecution().analyzed().stats().sizeInBytes()


def test_a_pass_runs_on_the_executors_only_above_the_limit(spark, monkeypatch):
    """A Gram pass or a mean violation whose input plan is at most
    ``LOCAL_PASS_BYTES`` starts no Python worker; one byte more, or a plan
    of unknown size, and it runs in ``mapInPandas``."""
    assert gram.LOCAL_PASS_BYTES == 64 << 20
    df = spark.createDataFrame(linear_pdf(n=300, seed=16))
    calls = []
    real = type(df).mapInPandas

    def spy(self, *args, **kwargs):
        calls.append(_plan_bytes(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(type(df), "mapInPandas", spy)
    c = discover(df)
    ref = augmented_gram(df)
    size = _plan_bytes(df.select("a", "b", "c"))
    assert 0 < size <= gram.LOCAL_PASS_BYTES and average_violation(df, c) < 0.02
    assert calls == []
    monkeypatch.setattr(gram, "LOCAL_PASS_BYTES", size)
    augmented_gram(df)
    assert calls == []
    monkeypatch.setattr(gram, "LOCAL_PASS_BYTES", size - 1)
    assert augmented_gram(df).n == ref.n
    assert average_violation(df, c) < 0.02
    assert calls == [size, size]
    monkeypatch.undo()
    calls.clear()
    monkeypatch.setattr(type(df), "mapInPandas", spy)
    unknown = spark.createDataFrame(df.rdd, df.schema)  # an RDD's size is unknown
    assert _plan_bytes(unknown) > gram.LOCAL_PASS_BYTES
    assert augmented_gram(unknown).n == ref.n
    assert len(calls) == 1


def test_airlines_training_passes_run_on_the_driver(spark, monkeypatch):
    """An airlines job's passes over its 200 K-row training split, a plan
    above 10 MiB, start no Python worker: ``discover``, ``fit_ols``,
    ``average_violation`` and ``mae``."""
    train = spark.createDataFrame(airlines_pdf(200_000, seed=0).drop(columns=["is_overnight"]))
    assert 10 << 20 < _plan_bytes(train) <= gram.LOCAL_PASS_BYTES
    calls = []
    real = type(train).mapInPandas

    def spy(self, *args, **kwargs):
        calls.append(_plan_bytes(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(type(train), "mapInPandas", spy)
    c = discover(train, cols=FEATURE_COLS)
    model = fit_ols(train, FEATURE_COLS, TARGET)
    assert average_violation(train, c) < 1e-3
    assert 15 < mae(train, model, TARGET) < 25  # the Laplace noise's MAE, 19
    assert calls == []


@pytest.mark.parametrize("runner", ["driver", "executors"])
def test_a_dotted_column_name_is_one_column(spark, monkeypatch, runner):
    """A column named ``x.1`` is read as that column, not as field ``1`` of
    a struct ``x``, by the Gram pass and by the mean-over-rows pass, on
    either runner."""
    monkeypatch.setattr(gram, "LOCAL_PASS_BYTES", math.inf if runner == "driver" else -1)
    df = spark.createDataFrame(linear_pdf(n=300, seed=18)).withColumnRenamed("a", "x.1")
    c = discover(df)
    assert c.parts[0].conjuncts[0].cols == ("x.1", "b", "c")
    assert average_violation(df, c) < 0.02


@pytest.mark.parametrize("runner", ["driver", "executors"])
def test_empty_frame_on_either_runner(spark, monkeypatch, runner):
    """A frame without rows gives an empty global record, no branch, a mean
    violation of 0 and responsibilities of 0, on the driver and on the
    executors alike."""
    monkeypatch.setattr(gram, "LOCAL_PASS_BYTES", math.inf if runner == "driver" else -1)
    df = spark.createDataFrame([], "a double, b double, c double, s string")
    passed = gram_pass(df, ["a", "b", "c"], {"s": ["a", "b"]})
    assert passed.total.n == 0 and (passed.total.scatter == 0).all()
    assert passed.grouped == {"s": {}} and passed.distinct == {"s": 0}
    c = discover(spark.createDataFrame(linear_pdf(n=100, seed=17)))
    assert average_violation(df, c) == 0.0
    assert (responsibilities(df, c, ["a", "b", "c"]) == 0.0).all()
