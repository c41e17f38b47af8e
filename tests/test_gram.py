"""Tests for the distributed Gram substrate (repro.core.gram)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as Fn

from repro.core.gram import (
    _merge,
    _moments_of,
    augmented_gram,
    grouped_augmented_gram,
    numeric_columns,
)
from repro.core.projections import augmented_factor
from repro.oracle import assert_equivalent
from tests.helpers import (
    augmented,
    frame_moments,
    linear_pdf,
    numpy_aug_gram,
    piecewise_pdf,
    random_unit_vectors,
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
    df = spark.createDataFrame(pdf)
    res = augmented_gram(df, ["a", "b", "c"])
    clean = pdf.dropna()
    n_ref, g_ref = numpy_aug_gram(clean, ["a", "b", "c"])
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
