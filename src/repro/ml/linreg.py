"""Closed-form linear regression on Spark DataFrames.

Fitting solves the centered normal equations ``S_xx beta = S_xy``, with
``intercept = mean(y) - mean(X) . beta``; ``S`` is the scatter of one moments
pass over ``features + [target]`` (see ``repro.core.gram``).  A tiny ridge
term on ``beta`` keeps the solve well-posed when features are collinear (the
airlines data intentionally has near-collinear time attributes); it equals
the raw normal equations' ridge with an unpenalized intercept.

``mae`` is one ``scoring.mean_over_rows`` pass of ``|y - predict_numpy(x)|``,
on the driver or the executors as ``gram.collect_partials`` decides.  It
leaves out rows with a null, NaN or ±inf feature or target (``finite_rows``,
the Gram pass's rule): Catalyst's ``avg`` skipped nulls but returned NaN
for a NaN.  ``LinearModel.predict_numpy`` is the one prediction: per-tuple
output (Figure 4) collects the rows and calls it too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.gram import augmented_gram, finite_rows
from repro.core.scoring import mean_over_rows


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


def mae(df: DataFrame, model: LinearModel, target: str) -> float:
    """Mean absolute error of the model over the rows of ``df`` whose
    features and target are all finite (one pass); 0 if there are none."""
    cols = [*model.feature_cols, target]

    def abs_error(pdf: pd.DataFrame) -> np.ndarray:
        xy = finite_rows(pdf[cols].to_numpy(dtype=np.float64))
        return np.abs(xy[:, -1] - model.predict_numpy(xy[:, :-1]))

    return float(mean_over_rows(df, cols, abs_error)[0])
