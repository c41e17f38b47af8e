"""Tests for the drift baselines (repro.drift.*)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.discovery import discover_simple
from repro.core.scoring import average_violation
from repro.datasets.evl import evl_window_pdf
from repro.drift.cd import cd_divergences, fit_cd
from repro.drift.pca_spll import fit_pca_spll, spll_drift
from repro.oracle import assert_equivalent
from tests.helpers import on_executors


def _gauss_pdf(center, n=1500, std=0.5, seed=0, cols=("d0", "d1")):
    g = np.random.default_rng(seed)
    x = g.normal(np.asarray(center, float), std, (n, len(cols)))
    return pd.DataFrame(x, columns=list(cols))


def _anisotropic_pdf(n=2000, seed=0):
    """y ~ x + small noise: a strong low-variance direction for SPLL."""
    g = np.random.default_rng(seed)
    x = g.normal(0, 3, n)
    return pd.DataFrame({"d0": x, "d1": x + g.normal(0, 0.3, n)})


# ---------------------------------------------------------------------------
# PCA-SPLL
# ---------------------------------------------------------------------------


def test_spll_retains_low_variance_components(spark):
    df = spark.createDataFrame(_anisotropic_pdf())
    model = fit_pca_spll(df, ["d0", "d1"])
    assert model.n_retained == 1
    # retained component is the low-variance (x - y) direction
    w = np.abs(model.components[0])
    np.testing.assert_allclose(w, [1 / np.sqrt(2)] * 2, atol=0.05)


def test_spll_zero_on_identical_distribution(spark):
    ref = spark.createDataFrame(_anisotropic_pdf(seed=1))
    same = spark.createDataFrame(_anisotropic_pdf(seed=2))
    model = fit_pca_spll(ref, ["d0", "d1"])
    assert spll_drift(same, model) < 0.1


def test_spll_detects_shift_along_retained_direction(spark):
    pdf = _anisotropic_pdf(seed=3)
    model = fit_pca_spll(spark.createDataFrame(pdf), ["d0", "d1"])
    shifted = pdf.copy()
    shifted["d1"] = shifted["d1"] + 2.0  # breaks the y ~ x relationship
    assert spll_drift(spark.createDataFrame(shifted), model) > 5.0


def test_spll_failure_mode_isotropic_reference(spark):
    """On an isotropic reference (e.g. 4CR at t=0) every PC explains ~50% >=
    25% cumulative: nothing is retained and the score is identically 0 —
    the paper's observed failure."""
    ref = spark.createDataFrame(evl_window_pdf("4CR", 0.0, 800, seed=4))
    model = fit_pca_spll(ref, ["d0", "d1"])
    assert model.n_retained == 0
    drifted = spark.createDataFrame(evl_window_pdf("4CR", 0.5, 800, seed=5))
    assert spll_drift(drifted, model) == 0.0


def test_spll_monotone_in_shift(spark):
    pdf = _anisotropic_pdf(seed=6)
    model = fit_pca_spll(spark.createDataFrame(pdf), ["d0", "d1"])
    scores = []
    for delta in [0.0, 0.5, 1.0, 2.0]:
        shifted = pdf.copy()
        shifted["d1"] = shifted["d1"] + delta
        scores.append(spll_drift(spark.createDataFrame(shifted), model))
    assert all(np.diff(scores) > 0)


# ---------------------------------------------------------------------------
# CD
# ---------------------------------------------------------------------------


def test_cd_model_components_high_variance_first(spark):
    df = spark.createDataFrame(_anisotropic_pdf(seed=7))
    model = fit_cd(df, ["d0", "d1"], k=2)
    # first component ~ the (x + y)/sqrt2 high-variance direction
    w = np.abs(model.components[0])
    np.testing.assert_allclose(w, [1 / np.sqrt(2)] * 2, atol=0.05)


def test_cd_histograms_are_normalized(spark):
    df = spark.createDataFrame(_gauss_pdf((0, 0), seed=8))
    model = fit_cd(df, ["d0", "d1"], k=2, bins=15)
    np.testing.assert_allclose(model.ref_probs.sum(axis=1), [1.0, 1.0], rtol=1e-9)


def test_cd_histogram_counts_against_duckdb_oracle(spark):
    """The bucketing rule is plain SQL — cross-check each component's
    histogram, one slice of the mean one-hot bucket indicator of a single
    ``mean_over_rows`` pass, with DuckDB."""
    pdf = _gauss_pdf((0, 0), n=800, seed=9)
    df = spark.createDataFrame(pdf)
    model = fit_cd(df, ["d0", "d1"], k=2, bins=10)
    for w, lo, width, probs in zip(model.components, model.lows, model.widths, model.ref_probs):
        counts = (probs * len(pdf)).round().astype(int)
        got = spark.createDataFrame(
            pd.DataFrame({"b": np.arange(10), "cnt": counts})
        ).filter("cnt > 0")
        assert_equivalent(
            got,
            f"""
            WITH t AS (
              SELECT least(9, greatest(0, CAST(floor(((d0*{w[0]!r}) + (d1*{w[1]!r}) - {lo!r}) / {width!r}) AS INT))) AS b
              FROM d
            )
            SELECT b, CAST(count(*) AS INT) AS cnt FROM t GROUP BY b
            """,
            d=pdf,
        )


@pytest.mark.parametrize("method", ["mkl", "area"])
def test_cd_zero_on_identical_near_zero(spark, method):
    ref = spark.createDataFrame(_gauss_pdf((0, 0), seed=10))
    same = spark.createDataFrame(_gauss_pdf((0, 0), seed=11))
    model = fit_cd(ref, ["d0", "d1"])
    s = cd_divergences(same, model)[method]
    assert 0 <= s < 0.15  # small but nonzero: CD's noise sensitivity


@pytest.mark.parametrize("method", ["mkl", "area"])
def test_cd_detects_global_shift(spark, method):
    ref = spark.createDataFrame(_gauss_pdf((0, 0), seed=12))
    model = fit_cd(ref, ["d0", "d1"])
    shifted = spark.createDataFrame(_gauss_pdf((3, 3), seed=13))
    s_same = cd_divergences(spark.createDataFrame(_gauss_pdf((0, 0), seed=14)), model)[method]
    s_shift = cd_divergences(shifted, model)[method]
    assert s_shift > 5 * max(s_same, 1e-6)


# ---------------------------------------------------------------------------
# Windows with rows no score can use, and windows without rows
# ---------------------------------------------------------------------------


def _with_bad_rows(spark, pdf):
    """``pdf`` as a Spark frame, plus rows with a null, a NaN and an inf.
    (Arrow would turn a pandas NaN into a null, so SQL writes them.)"""
    bad = spark.sql(
        "SELECT * FROM VALUES (CAST(NULL AS DOUBLE), 1.0D), (double('NaN'), 0.5D), "
        "(0.0D, double('Infinity')) AS t(d0, d1)"
    )
    return spark.createDataFrame(pdf).union(bad)


def test_rows_with_a_non_finite_feature_are_left_out(spark):
    """A row with a null, NaN or inf feature is left out of both scores and
    of CD's reference histogram, as the Gram pass leaves it out of the
    moments the models are fit on."""
    ref, win = _anisotropic_pdf(seed=18), _anisotropic_pdf(seed=19)
    win["d1"] += 0.5
    clean = spark.createDataFrame(win)
    spll = fit_pca_spll(spark.createDataFrame(ref), ["d0", "d1"])
    assert spll_drift(_with_bad_rows(spark, win), spll) == spll_drift(clean, spll) > 0
    cd = fit_cd(spark.createDataFrame(ref), ["d0", "d1"])
    assert (fit_cd(_with_bad_rows(spark, ref), ["d0", "d1"]).ref_probs == cd.ref_probs).all()
    assert cd_divergences(_with_bad_rows(spark, win), cd) == cd_divergences(clean, cd)


def test_empty_window_scores(spark):
    """A window without rows scores 0 on PCA-SPLL.  Its CD histogram is all
    zeros, which smoothing turns into the uniform density: CD-Area is 1 and
    CD-MKL the larger KL divergence between the reference and uniform."""
    ref = spark.createDataFrame(_anisotropic_pdf(seed=20))
    empty = ref.limit(0)
    spll = fit_pca_spll(ref, ["d0", "d1"])
    assert spll.n_retained == 1
    assert spll_drift(empty, spll) == 0.0
    cd = fit_cd(ref, ["d0", "d1"], bins=10)
    p = (cd.ref_probs + 1e-6) / (cd.ref_probs + 1e-6).sum(axis=1, keepdims=True)
    u = np.full(10, 0.1)
    kl = [max(np.sum(pj * np.log(pj / u)), np.sum(u * np.log(u / pj))) for pj in p]
    got = cd_divergences(empty, cd)
    assert got["area"] == 1.0
    assert got["mkl"] == pytest.approx(max(kl), rel=1e-12)


# ---------------------------------------------------------------------------
# W-PCA
# ---------------------------------------------------------------------------


def test_wpca_drift_detects_relationship_break(spark):
    """W-PCA is the global simple constraint, scored by average violation."""
    pdf = _anisotropic_pdf(seed=17)
    model = discover_simple(spark.createDataFrame(pdf), ["d0", "d1"])
    broken = pdf.copy()
    broken["d1"] = broken["d1"] + 4.0
    assert average_violation(spark.createDataFrame(pdf), model) < 0.02
    assert average_violation(spark.createDataFrame(broken), model) > 0.2


TestOnExecutors = on_executors(
    test_spll_retains_low_variance_components,
    test_spll_zero_on_identical_distribution,
    test_spll_detects_shift_along_retained_direction,
    test_spll_failure_mode_isotropic_reference,
    test_spll_monotone_in_shift,
    test_cd_model_components_high_variance_first,
    test_cd_histograms_are_normalized,
    test_cd_histogram_counts_against_duckdb_oracle,
    test_cd_zero_on_identical_near_zero,
    test_cd_detects_global_shift,
    test_rows_with_a_non_finite_feature_are_left_out,
    test_empty_window_scores,
)
