"""PCA-SPLL drift detection (Kuncheva & Faithfull [53]) — Figure 8 baseline.

Fit on a reference window: covariance PCA; keep principal components from the
*lowest*-variance end while their cumulative explained variance stays below
``CUM_VAR_THRESHOLD``, the 25 % of the paper's experiments.  Score a new window
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
from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame

from repro.core.gram import augmented_gram, finite_rows
from repro.core.scoring import mean_over_rows

#: Components are kept while their cumulative explained variance stays below this.
CUM_VAR_THRESHOLD = 0.25


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


def fit_pca_spll(df: DataFrame, cols: Sequence[str]) -> SPLLModel:
    cols = list(cols)
    gram = augmented_gram(df, cols)
    eigvals, eigvecs = np.linalg.eigh(gram.cov())  # ascending
    eigvals = np.maximum(eigvals, 0.0)
    total = eigvals.sum()
    keep: list[int] = []
    cum = 0.0
    for k in range(len(eigvals)):
        cum += eigvals[k] / total if total > 0 else 1.0
        if cum >= CUM_VAR_THRESHOLD:
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
    """Mean squared z-score in the retained subspace, minus its null value 1,
    from one ``mean_over_rows`` pass over the tuples of ``df`` with no null,
    NaN or ±inf feature (the Gram pass's own rule).

    Returns 0.0 when no components were retained (the failure mode) or no
    tuple is kept.
    """
    if model.n_retained == 0:
        return 0.0

    def per_row(pdf):
        x = finite_rows(pdf[list(model.cols)].to_numpy(dtype=np.float64))
        z = (x @ model.components.T - model.comp_means) / model.comp_stds
        return (z * z).mean(axis=1)

    return max(float(mean_over_rows(df, model.cols, per_row)[0]) - 1.0, 0.0)
