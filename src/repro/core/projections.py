"""Algorithm 1 of the paper: PCA-inspired linear projection derivation.

Given the augmented Gram matrix ``G = [1|X]^T [1|X]`` (from ``repro.core.gram``):

  line 3   compute the K = m+1 eigenvectors of ``G`` as the right singular
            vectors of ``R`` with ``G = R^T R`` (``augmented_factor``): ``G``
            squares ``R``'s condition number, and loses low-variance
            directions on columns far from 0;
  lines 5-6 drop the first (intercept) element of each eigenvector and
            normalize the rest to a unit vector — that unit vector defines a
            linear projection ``F_k(t) = t . w_k``;
  line 7   importance factor ``gamma_k = 1 / log(2 + sigma(F_k(D)))``
            (Appendix G), later normalized to sum to 1 within a conjunction.

Theorem 4 guarantees the set includes the minimum-variance linear projection
and that distinct projections are asymptotically uncorrelated.  The
eigenvector aligned with the intercept axis yields a ~zero residual vector
after dropping its first element; it is skipped (it defines no projection).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gram import GramResult

#: Eigenvectors whose non-intercept part has 2-norm below this are skipped.
_MIN_RESIDUAL_NORM = 1e-9


@dataclass(frozen=True)
class Projection:
    """A unit-norm linear projection with its moments on the training data.

    ``F(t) = sum_i weights[i] * t[cols[i]]``; ``mean``/``std`` are mu(F(D)) and
    sigma(F(D)); ``eigenvalue`` is the eigenvalue of the source eigenvector of
    the augmented Gram matrix (ascending order ⇒ low-variance projections
    first, matching the paper's emphasis on low-variance components).
    """

    cols: tuple[str, ...]
    weights: tuple[float, ...]
    mean: float
    std: float
    eigenvalue: float


def importance_raw(std: float) -> float:
    """Unnormalized importance factor ``1/log(2 + sigma)`` (Appendix G)."""
    return 1.0 / float(np.log(2.0 + max(std, 0.0)))


def augmented_factor(gram: GramResult) -> np.ndarray:
    """``R = [[sqrt(n), sqrt(n) mean^T], [0, S^1/2]]``, so ``R^T R`` is the
    augmented Gram ``[1|X]^T [1|X]``; ``S^1/2 = diag(sqrt(lambda)) V^T`` from
    ``eigh(S)``, with eigenvalues that rounding took below 0 clipped at 0."""
    lam, v = np.linalg.eigh(gram.scatter)
    root_s = np.sqrt(np.clip(lam, 0.0, None))[:, None] * v.T
    top = np.sqrt(gram.n) * np.concatenate([[1.0], gram.mean])
    return np.vstack([top, np.hstack([np.zeros((len(lam), 1)), root_s])])


def derive_projections(gram: GramResult) -> list[Projection]:
    """Run Algorithm 1 on a precomputed moments record.

    Returns projections sorted by ascending eigenvalue (low variance first),
    each with its largest-magnitude weight positive (a flipped sign swaps lb
    and ub and scores the same).  Requires no further data passes: moments
    come from the record.
    """
    _, sing, vt = np.linalg.svd(augmented_factor(gram))
    out: list[Projection] = []
    for k in reversed(range(len(sing))):
        w = vt[k, 1:]
        norm = float(np.linalg.norm(w))
        if norm < _MIN_RESIDUAL_NORM:
            continue
        w = w / norm
        w = w * np.sign(w[np.argmax(np.abs(w))])
        mean, std = gram.projection_moments(w)
        out.append(
            Projection(
                cols=gram.cols,
                weights=tuple(float(x) for x in w),
                mean=mean,
                std=std,
                eigenvalue=float(sing[k] ** 2),
            )
        )
    return out
