"""Tests for Algorithm 1 (repro.core.projections)."""
from __future__ import annotations

import mpmath
import numpy as np
import pytest

from repro.core.gram import augmented_gram
from repro.core.projections import derive_projections, importance_raw
from tests.helpers import (
    arrow_batches,
    augmented,
    frame_moments,
    kernel_moments,
    linear_pdf,
    random_unit_vectors,
)


def test_example3_zero_variance_projection():
    """Paper Example 3: D={(1,1),(2,2),(3,3)} admits F=(A1-A2)/sqrt(2), sigma=0."""
    import pandas as pd

    pdf = pd.DataFrame({"A1": [1.0, 2.0, 3.0], "A2": [1.0, 2.0, 3.0]})
    projections = derive_projections(frame_moments(pdf, ["A1", "A2"]))
    best = min(projections, key=lambda p: p.std)
    assert best.std == pytest.approx(0.0, abs=1e-9)
    w = np.abs(np.asarray(best.weights))
    np.testing.assert_allclose(w, [1 / np.sqrt(2)] * 2, atol=1e-9)
    assert best.mean == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unit_norm_weights(seed):
    pdf = linear_pdf(n=300, seed=seed)
    for p in derive_projections(frame_moments(pdf, ["a", "b", "c"])):
        assert np.linalg.norm(p.weights) == pytest.approx(1.0, rel=1e-9)


def test_sorted_by_eigenvalue():
    pdf = linear_pdf(n=300, seed=3)
    gram = frame_moments(pdf, ["a", "b", "c"])
    projections = derive_projections(gram)
    eigs = [p.eigenvalue for p in projections]
    assert eigs == sorted(eigs)
    # they are the eigenvalues of the augmented Gram (none is skipped here)
    np.testing.assert_allclose(eigs, np.linalg.eigvalsh(augmented(gram)), rtol=1e-6)


def test_planted_invariant_recovered():
    """c = a + b + noise -> lowest-std projection is ±(1,1,-1)/sqrt(3)."""
    pdf = linear_pdf(n=2000, noise=0.01, seed=4)
    projections = derive_projections(frame_moments(pdf, ["a", "b", "c"]))
    best = min(projections, key=lambda p: p.std)
    assert best.std < 0.05
    w = np.asarray(best.weights)
    w = w / np.sign(w[0])
    np.testing.assert_allclose(w, np.array([1, 1, -1]) / np.sqrt(3), atol=0.01)


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_theorem4_min_std_beats_random_projections(seed):
    """Theorem 4(1): Algorithm 1's min sigma <= sigma of any linear projection."""
    pdf = linear_pdf(n=500, noise=0.2, seed=seed)
    cols = ["a", "b", "c"]
    projections = derive_projections(frame_moments(pdf, cols))
    sigma_star = min(p.std for p in projections)
    x = pdf[cols].to_numpy()
    for w in random_unit_vectors(3, 200, seed=seed + 100):
        assert sigma_star <= (x @ w).std() + 1e-9


def test_theorem4_projections_nearly_uncorrelated():
    """Theorem 4(2) is asymptotic: max |rho| between distinct projections
    must be small at large n and no larger than at small n.

    The proof's c_j -> -mu_j step needs lambda_j/n -> 0, which holds for the
    low-variance components the method actually uses; the top (mean-dominated)
    eigenvector is excluded here."""

    def max_abs_rho(n: int) -> float:
        pdf = linear_pdf(n=n, noise=0.5, seed=9)
        cols = ["a", "b", "c"]
        projections = derive_projections(frame_moments(pdf, cols))[:-1]
        x = pdf[cols].to_numpy()
        fs = [x @ np.asarray(p.weights) for p in projections]
        return max(
            abs(np.corrcoef(fs[i], fs[j])[0, 1])
            for i in range(len(fs))
            for j in range(i + 1, len(fs))
        )

    big = max_abs_rho(20000)
    assert big < 0.15
    assert big <= max_abs_rho(50) + 1e-9


def test_centered_data_skips_intercept_eigenvector():
    """Centered X makes [1|X]'s Gram block-diagonal: the pure-intercept
    eigenvector defines no projection and must be skipped (m, not m+1)."""
    pdf = linear_pdf(n=400, seed=10)
    pdf = pdf - pdf.mean()
    projections = derive_projections(frame_moments(pdf, ["a", "b", "c"]))
    assert len(projections) == 3


def test_importance_prefers_low_variance():
    assert importance_raw(0.0) > importance_raw(1.0) > importance_raw(100.0)
    assert importance_raw(0.0) == pytest.approx(1 / np.log(2))


def test_spark_and_numpy_grams_give_same_projections(spark):
    pdf = linear_pdf(n=600, seed=11)
    spark_gram = augmented_gram(spark.createDataFrame(pdf), ["a", "b", "c"])
    ref_gram = frame_moments(pdf, ["a", "b", "c"])
    p1 = derive_projections(spark_gram)
    p2 = derive_projections(ref_gram)
    assert len(p1) == len(p2)
    for a, b in zip(p1, p2):
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-6)
        assert a.std == pytest.approx(b.std, rel=1e-6, abs=1e-9)


def _exact_algorithm1_min_std(pdf, cols) -> float:
    """Algorithm 1's smallest projection sigma with the eigenvectors of the
    exact augmented Gram, taken at 50 significant digits."""
    mpmath.mp.dps = 50
    xa = mpmath.matrix([[1.0, *row] for row in pdf[cols].to_numpy().tolist()])
    _, q = mpmath.eigsy(xa.T * xa)
    x = pdf[cols].to_numpy()
    xc = x - x.mean(axis=0)
    stds = []
    for k in range(len(cols) + 1):
        w = np.array([float(q[i, k]) for i in range(1, len(cols) + 1)])
        if np.linalg.norm(w) > 1e-9:
            stds.append((xc @ (w / np.linalg.norm(w))).std())
    return min(stds)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("offset", [0.0, 1e5, 1e7, 1e9])
def test_min_sigma_wherever_the_data_sits(offset, scale):
    """The smallest sigma among the returned projections is the planted
    invariant's (the smallest sigma of any projection of the data, as
    stored), within 1 %, wherever the data sits, and it is what Algorithm 1
    gives in exact arithmetic.  At offset 1e5 and scale 1e6 exact Algorithm
    1 itself misses the planted sigma by 14 %: the intercept column is not
    scaled with the data, so its smallest eigenvector trades sigma against
    the projection's mean (1e5/sqrt(3), next to sigma = 2.9e4)."""
    cols = ["a", "b", "c"]
    pdf = offset + scale * linear_pdf(n=2000)
    got = min(p.std for p in derive_projections(kernel_moments(arrow_batches(pdf, 700), cols)))
    x = pdf[cols].to_numpy()
    xc = x - x.mean(axis=0)
    planted = float(np.sqrt(np.linalg.eigvalsh(xc.T @ xc / len(x))[0]))
    assert got == pytest.approx(_exact_algorithm1_min_std(pdf, cols), rel=1e-2)
    if (offset, scale) != (1e5, 1e6):
        assert got == pytest.approx(planted, rel=1e-2)
