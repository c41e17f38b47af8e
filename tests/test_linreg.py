"""Tests for the closed-form OLS substrate (repro.ml.linreg)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as Fn

from repro.ml.linreg import fit_ols, mae
from repro.oracle import assert_equivalent
from tests.helpers import linear_pdf, on_executors


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ols_matches_numpy_lstsq(spark, seed):
    pdf = linear_pdf(n=500, noise=0.5, seed=seed)
    model = fit_ols(spark.createDataFrame(pdf), ["a", "b"], "c", ridge=0.0)
    x = np.hstack([np.ones((len(pdf), 1)), pdf[["a", "b"]].to_numpy()])
    beta, *_ = np.linalg.lstsq(x, pdf["c"].to_numpy(), rcond=None)
    assert model.intercept == pytest.approx(beta[0], abs=1e-6)
    np.testing.assert_allclose(model.coefs, beta[1:], atol=1e-8)


def test_ols_recovers_planted_coefficients(spark):
    pdf = linear_pdf(n=4000, noise=0.01, seed=3, slope=(2.5, -0.5))
    model = fit_ols(spark.createDataFrame(pdf), ["a", "b"], "c")
    np.testing.assert_allclose(model.coefs, [2.5, -0.5], atol=0.01)
    assert model.intercept == pytest.approx(0.0, abs=0.05)


def test_mae_against_duckdb_oracle(spark):
    pdf = linear_pdf(n=300, noise=1.0, seed=5)
    df = spark.createDataFrame(pdf)
    model = fit_ols(df, ["a", "b"], "c")
    got_mae = mae(df, model, "c")
    got = spark.createDataFrame(pd.DataFrame({"mae": [got_mae]}))
    coef_sql = " + ".join(
        [repr(model.intercept)]
        + [f"({c} * {w!r})" for c, w in zip(model.feature_cols, model.coefs)]
    )
    assert_equivalent(
        got,
        f"SELECT avg(abs(c - ({coef_sql}))) AS mae FROM d",
        d=pdf,
    )


def test_ridge_handles_collinear_features(spark):
    pdf = linear_pdf(n=300, seed=6)
    pdf["a2"] = pdf["a"]  # exact duplicate column
    model = fit_ols(spark.createDataFrame(pdf), ["a", "a2", "b"], "c")
    assert np.isfinite(model.coefs).all()
    # predictions still accurate despite collinearity
    x = pdf[["a", "a2", "b"]].to_numpy()
    err = np.abs(model.predict_numpy(x) - pdf["c"].to_numpy())
    assert err.mean() < 0.2


def test_mae_leaves_out_rows_with_a_missing_or_infinite_value(spark):
    """A row with a null or NaN feature, or an infinite target, is left out:
    MAE equals Catalyst's ``avg`` of the absolute error over the finite
    rows, and 0 on a frame with none."""
    df = spark.createDataFrame(linear_pdf(n=200, noise=1.0, seed=8))
    model = fit_ols(df, ["a", "b"], "c")
    bad = spark.sql(
        "SELECT * FROM VALUES (CAST(NULL AS DOUBLE), 1.0D, 2.0D), "
        "(1.0D, CAST('NaN' AS DOUBLE), 2.0D), (1.0D, 2.0D, double('-Infinity')) AS t(a, b, c)"
    )
    assert bad.where(Fn.isnan("b")).count() == 1 and bad.where(Fn.isnull("a")).count() == 1
    prediction = Fn.lit(model.intercept)
    for c, w in zip(model.feature_cols, model.coefs):
        prediction += Fn.col(c) * w
    want = df.select(Fn.avg(Fn.abs(Fn.col("c") - prediction))).first()[0]
    assert mae(df.union(bad), model, "c") == pytest.approx(want, rel=1e-12)
    assert mae(bad, model, "c") == 0.0


TestOnExecutors = on_executors(
    test_mae_against_duckdb_oracle,
    test_mae_leaves_out_rows_with_a_missing_or_infinite_value,
)
