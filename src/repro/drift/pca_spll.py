"""PCA-SPLL drift detection (Kuncheva & Faithfull [53]) — Figure 8 baseline.

Fit on a reference window: covariance PCA; keep principal components from the
*lowest*-variance end while their cumulative explained variance stays below
``cum_var_threshold`` (the paper's experiments use 25 %).  Score a new window
with the semi-parametric log-likelihood in the retained subspace — here the
single-Gaussian variant: the mean squared z-score of the retained component
projections (zero-drift expectation is 1.0 per component; we subtract it so
an undrifted window scores ~0).

Faithful failure mode: when even the single lowest-variance component exceeds
the cumulative threshold (isotropic reference data — 4CR and friends), *no*
component is retained and the score is identically 0 ("PCA-SPLL fails to
detect drift ... by discarding all principal components").
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as Fn

from repro.core.gram import augmented_gram


@dataclass(frozen=True)
class SPLLModel:
    cols: tuple[str, ...]
    #: retained components: (r, m) rows are unit eigenvectors (low variance)
    components: np.ndarray
    comp_means: np.ndarray
    comp_stds: np.ndarray

    @property
    def n_retained(self) -> int:
        return len(self.components)


def fit_pca_spll(
    df: DataFrame, cols: Sequence[str], cum_var_threshold: float = 0.25
) -> SPLLModel:
    cols = list(cols)
    gram = augmented_gram(df, cols)
    eigvals, eigvecs = np.linalg.eigh(gram.cov())  # ascending
    eigvals = np.maximum(eigvals, 0.0)
    total = eigvals.sum()
    keep: list[int] = []
    cum = 0.0
    for k in range(len(eigvals)):
        cum += eigvals[k] / total if total > 0 else 1.0
        if cum >= cum_var_threshold:
            break
        keep.append(k)
    comps = eigvecs[:, keep].T  # (0, m) when nothing is retained
    return SPLLModel(
        cols=tuple(cols),
        components=comps,
        comp_means=comps @ gram.mean,
        comp_stds=np.maximum(np.sqrt(eigvals[keep]), 1e-12),
    )


def spll_drift(df: DataFrame, model: SPLLModel) -> float:
    """Mean squared z-score in the retained subspace, minus its null value 1.

    Returns 0.0 when no components were retained (the failure mode).
    Evaluated as one Catalyst aggregation.
    """
    if model.n_retained == 0:
        return 0.0
    terms = []
    for w, mu, sd in zip(model.components, model.comp_means, model.comp_stds):
        f = reduce(
            lambda a, x: a + x,
            [Fn.col(c) * Fn.lit(float(wi)) for c, wi in zip(model.cols, w)],
        )
        z = (f - Fn.lit(float(mu))) / Fn.lit(float(sd))
        terms.append(z * z)
    expr = reduce(lambda a, x: a + x, terms) / Fn.lit(float(model.n_retained))
    row = df.select(Fn.avg(expr).alias("s")).first()
    return max(float(row["s"]) - 1.0, 0.0)
