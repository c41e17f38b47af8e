"""Closed-form linear regression on Spark DataFrames.

Fitting solves the centered normal equations ``S_xx beta = S_xy``, with
``intercept = mean(y) - mean(X) . beta``; ``S`` is the scatter of one moments
pass over ``features + [target]`` (see ``repro.core.gram``).  A tiny ridge
term on ``beta`` keeps the solve well-posed when features are collinear (the
airlines data intentionally has near-collinear time attributes); it equals
the raw normal equations' ridge with an unpenalized intercept.  Prediction
and MAE are pure Catalyst expressions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as Fn

from repro.core.gram import augmented_gram


@dataclass(frozen=True)
class LinearModel:
    """``y_hat = intercept + sum_i coefs[i] * t[feature_cols[i]]``."""

    feature_cols: tuple[str, ...]
    intercept: float
    coefs: tuple[float, ...]

    def predict_numpy(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + x @ np.asarray(self.coefs, dtype=np.float64)


def fit_ols(
    df: DataFrame,
    feature_cols: Sequence[str],
    target: str,
    ridge: float = 1e-8,
) -> LinearModel:
    """Fit OLS (with a tiny ridge for conditioning) in one distributed pass.

    ``ridge`` multiplies the features' mean raw second moment (at least 1)
    so it is unit-free; it is not applied to the intercept.
    """
    feature_cols = list(feature_cols)
    gram = augmented_gram(df, feature_cols + [target])
    k = len(feature_cols)
    mean, s = gram.mean, gram.scatter
    scale = np.mean(np.diag(s)[:k] + gram.n * mean[:k] ** 2) if k else 1.0
    beta = np.linalg.solve(s[:k, :k] + np.eye(k) * ridge * max(scale, 1.0), s[:k, k])
    return LinearModel(
        feature_cols=tuple(feature_cols),
        intercept=float(mean[k] - mean[:k] @ beta),
        coefs=tuple(float(x) for x in beta),
    )


def predict_col(model: LinearModel) -> Column:
    """The model's prediction as a Catalyst column expression."""
    terms = [Fn.lit(model.intercept)] + [
        Fn.col(c) * Fn.lit(w) for c, w in zip(model.feature_cols, model.coefs)
    ]
    return reduce(lambda a, x: a + x, terms)


def with_prediction(df: DataFrame, model: LinearModel, col_name: str = "prediction") -> DataFrame:
    return df.withColumn(col_name, predict_col(model))


def mae(df: DataFrame, model: LinearModel, target: str) -> float:
    """Mean absolute error of the model on ``df`` (one Spark aggregation)."""
    row = df.select(
        Fn.avg(Fn.abs(Fn.col(target) - predict_col(model))).alias("mae")
    ).first()
    return float(row["mae"])


def absolute_error_col(model: LinearModel, target: str) -> Column:
    return Fn.abs(Fn.col(target) - predict_col(model))
