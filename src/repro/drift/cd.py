"""CD change detection (Qahtan et al. [68]) — Figure 8 baseline.

Fit on a reference window: covariance PCA, keep the top-k *high*-variance
components (opposite of the paper's method — which is the point of the
comparison).  Each component's reference distribution is summarized by an
equal-width histogram over mean ± 5 sigma (outliers clipped into the edge
bins).  A new window is scored per component against the reference density:

* ``CD-MKL``  — max over components of max(KL(p||q), KL(q||p));
* ``CD-Area`` — max over components of 1 - sum_i min(p_i, q_i)
                (one minus the intersection area of the two densities).

Histograms are computed with one Catalyst bucketing expression per
component and a single groupBy on all k of them, so only the (at most
bins^k) joint cell counts ever reach the driver.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as Fn

from repro.core.gram import augmented_gram

_SMOOTH = 1e-6


@dataclass(frozen=True)
class CDModel:
    cols: tuple[str, ...]
    components: np.ndarray  # (k, m), unit eigenvectors, descending variance
    lows: np.ndarray  # (k,) histogram range starts
    widths: np.ndarray  # (k,) bin widths
    bins: int
    ref_probs: np.ndarray  # (k, bins)


def _bucket_expr(cols: Sequence[str], w: np.ndarray, lo: float, width: float, bins: int):
    f = reduce(
        lambda a, x: a + x, [Fn.col(c) * Fn.lit(float(wi)) for c, wi in zip(cols, w)]
    )
    raw = Fn.floor((f - Fn.lit(float(lo))) / Fn.lit(float(width)))
    return Fn.least(Fn.lit(bins - 1), Fn.greatest(Fn.lit(0), raw.cast("int")))


def _histograms(df: DataFrame, model_cols, components, lows, widths, bins) -> np.ndarray:
    """(k, bins) normalized histograms from one grouped aggregation: the
    counts of the joint (at most bins^k) bucket cells, summed on the driver
    into each component's marginal."""
    buckets = [
        _bucket_expr(model_cols, w, lo, width, bins).alias(f"b{j}")
        for j, (w, lo, width) in enumerate(zip(components, lows, widths))
    ]
    out = np.zeros((len(components), bins))
    for row in df.groupBy(*buckets).count().collect():
        for j in range(len(buckets)):
            out[j, int(row[j])] += row["count"]
    totals = out.sum(axis=1, keepdims=True)
    return np.divide(out, totals, out=out, where=totals > 0)


def fit_cd(df: DataFrame, cols: Sequence[str], k: int = 2, bins: int = 20) -> CDModel:
    cols = list(cols)
    gram = augmented_gram(df, cols)
    eigvals, eigvecs = np.linalg.eigh(gram.cov())
    order = np.argsort(eigvals)[::-1][: min(k, len(cols))]
    comps = eigvecs[:, order].T
    mus = comps @ gram.mean
    sds = np.sqrt(np.maximum(eigvals[order], 1e-12))
    lows = mus - 5 * sds
    widths = (10 * sds) / bins
    ref = _histograms(df, cols, comps, lows, widths, bins)
    return CDModel(
        cols=tuple(cols), components=comps, lows=lows, widths=widths, bins=bins, ref_probs=ref
    )


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    p = p + _SMOOTH
    q = q + _SMOOTH
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def cd_divergences(df: DataFrame, model: CDModel) -> dict[str, float]:
    """Both CD scores from a single histogram pass: {"mkl": .., "area": ..}."""
    hist = _histograms(df, model.cols, model.components, model.lows, model.widths, model.bins)
    mkl, area = [], []
    for p, q in zip(model.ref_probs, hist):
        mkl.append(max(_kl(p, q), _kl(q, p)))
        area.append(1.0 - float(np.minimum(p, q).sum()))
    return {"mkl": max(mkl) if mkl else 0.0, "area": max(area) if area else 0.0}

