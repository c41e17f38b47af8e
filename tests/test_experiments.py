"""Integration tests: small-scale runs of every table's harness, asserting
the *shape* the paper reports (which method wins, direction of effects,
where crossovers fall) rather than absolute numbers."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest

from repro.core import gram
from repro.core.discovery import discover
from repro.core.scoring import violation_numpy
from repro.experiments import (
    fig3_airlines,
    fig4_tuplewise,
    fig5a_har_tml,
    fig5b_gradual_drift,
    fig6_interperson,
    fig7_interactivity,
    fig8_evl,
    fig10_explain,
    mean_violation_by,
)
from tests.helpers import piecewise_pdf


@pytest.fixture(scope="module")
def fig3(spark):
    # n_train must be large enough that OLS pins the gap coefficient
    # (se ~ 0.008 at 12k rows); smaller samples make the MAE ratio noisy
    return fig3_airlines.run(spark, n_train=12000, n_test=1500).set_index("split")


def test_fig3_overnight_violation_dominates(fig3):
    assert fig3.loc["overnight", "avg_violation"] > 50 * max(
        fig3.loc["daytime", "avg_violation"], 1e-4
    )
    assert fig3.loc["train", "avg_violation"] < 0.01


def test_fig3_mae_inflates_on_overnight(fig3):
    """The paper's headline: MAE roughly quadruples on overnight flights."""
    ratio = fig3.loc["overnight", "mae"] / fig3.loc["daytime", "mae"]
    assert 2.2 < ratio < 9.0


def test_fig3_mixed_interpolates(fig3):
    for col in ["avg_violation", "mae"]:
        assert fig3.loc["daytime", col] < fig3.loc["mixed", col] < fig3.loc["overnight", col]


def test_fig4_violation_tracks_error(spark):
    r = fig4_tuplewise.run(spark, n_train=6000, n_sample=500)
    assert r["summary"]["pearson_violation_abs_error"].iloc[0] > 0.4
    d = r["deciles"]
    top = d[d.decile >= 8]["mean_abs_error"].mean()
    bottom = d[d.decile <= 1]["mean_abs_error"].mean()
    assert top > 2 * bottom


def test_fig5a_violation_predicts_accuracy_drop(spark):
    out = fig5a_har_tml.run(spark, n_per_cell=60, fractions=(0.0, 0.5, 1.0))
    assert out["pcc_violation_accdrop"].iloc[0] > 0.95  # paper: 0.99
    assert out["avg_violation"].is_monotonic_increasing
    assert out["accuracy_drop"].is_monotonic_increasing
    assert out["avg_violation"].iloc[0] < 0.05


def test_fig5b_disynth_rises_wpca_flat(spark):
    out = fig5b_gradual_drift.run(spark, n_per_cell=50, n_repeats=1, ks=(1, 8, 15))
    assert out["disynth_violation"].is_monotonic_increasing
    assert out["disynth_violation"].iloc[-1] > 0.2
    # W-PCA sees no strong global drift: stays near zero throughout
    assert out["wpca_violation"].max() < 0.1
    assert out["disynth_violation"].iloc[-1] > 5 * out["wpca_violation"].iloc[-1]


@pytest.mark.parametrize("runner", ["driver", "executors"])
def test_mean_violation_by_is_each_groups_mean(spark, monkeypatch, runner):
    """The one-pass group means of Figs 6 and 7 equal pandas' group means of
    the kernel's violations, in the order of ``groups``, on either runner."""
    monkeypatch.setattr(gram, "LOCAL_PASS_BYTES", math.inf if runner == "driver" else -1)
    c = discover(spark.createDataFrame(piecewise_pdf(n_per=100, seed=3)))
    test = piecewise_pdf(n_per=100, seed=4).assign(half=np.arange(300) % 2)
    test["x"] += test["half"]  # one half of each group drifts
    groups = pd.MultiIndex.from_product([["g2", "g0", "g1"], [1, 0]], names=["grp", "half"])
    got = mean_violation_by(spark.createDataFrame(test), c, groups)
    by_group = test.assign(v=violation_numpy(c, test)).groupby(["grp", "half"])["v"].mean()
    np.testing.assert_allclose(got, by_group.reindex(groups), rtol=1e-12)
    assert got[1::2].max() < 0.05 < got[::2].min()


@pytest.fixture(scope="module")
def fig6(spark):
    # n_per_cell must exceed the 36 sensor attributes, else the per-cell PCA
    # is rank-deficient and fabricates zero-variance (overfit) constraints
    out = fig6_interperson.run(spark, n_per_cell=80)
    return out.set_index("learned_on").iloc[:, :15].astype(float)


def test_fig6_diagonal_low(fig6):
    diag = np.diag(fig6.to_numpy())
    off = fig6.to_numpy()[~np.eye(15, dtype=bool)]
    assert diag.max() < 0.15
    assert off.min() > 2 * diag.max()


def test_fig6_obese_persons_drift_most(fig6):
    """p08/p10 (obese) are the most-drifted columns, as their extreme
    metadata scale puts them farthest from everyone else."""
    col_means = fig6.mean(axis=0).sort_values(ascending=False)
    assert set(col_means.index[:3]) & {"p08", "p10"}


@pytest.fixture(scope="module")
def fig7(spark):
    out = fig7_interactivity.run(spark, n_per_cell=40)
    return out.set_index("learned_on").astype(float)


def test_fig7_diagonal_low(fig7):
    assert np.diag(fig7.to_numpy()).max() < 0.15


def test_fig7_mobile_violates_sedentary_asymmetry(fig7):
    """Paper: 'all mobile activities violate all sedentary activities more
    than the other way around'."""
    from repro.datasets.har import MOBILE, SEDENTARY

    for sed in SEDENTARY:
        for mob in MOBILE:
            assert fig7.loc[sed, mob] > fig7.loc[mob, sed]


def test_fig8_disynth_beats_baselines_on_local_drift(spark):
    out = fig8_evl.run(
        spark, datasets=("4CR", "FG-2C-2D", "5CVT"), n_windows=6, n_per_class=150
    ).set_index("dataset")
    # DISYNTH tracks ground truth everywhere
    assert (out["corr_disynth"] > 0.7).all()
    # PCA-SPLL collapses on the rotation-symmetric local-drift datasets...
    for name in ["4CR", "FG-2C-2D"]:
        assert out.loc[name, "spll_retained_components"] == 0
        assert out.loc[name, "corr_pca_spll"] == 0.0
    # ...but works on the global-translation dataset
    assert out.loc["5CVT", "corr_pca_spll"] > 0.7


def test_fig8_runs_on_higher_dimensional_datasets(spark):
    out = fig8_evl.run(
        spark, datasets=("UG-2C-3D", "UG-2C-5D"), n_windows=5, n_per_class=120
    )
    assert (out["corr_disynth"] > 0.6).all()


def test_fig10_case_studies_shapes(spark):
    out = fig10_explain.run_case_studies(spark, n_train=1200, n_test=200)
    cardio = out[out.dataset == "cardio"].set_index("attribute")["responsibility"]
    assert set(cardio.sort_values(ascending=False).index[:2]) == {"ap_hi", "ap_lo"}
    mobile = out[out.dataset == "mobile"].set_index("attribute")["responsibility"]
    assert mobile.idxmax() == "ram"
    house = out[out.dataset == "house"].set_index("attribute")["responsibility"]
    assert house.max() < 3 * house.median()  # holistic: no dominant attribute


def test_fig10_led_tracks_malfunction_schedule(spark):
    out = fig10_explain.run_led(spark, n_windows=8, n_per_window=600, n_explain=120)
    clean = out[out.window < 5]
    broken = out[out.window >= 5]
    assert (clean["top_attr"] == "(none)").all()
    assert (broken["top2_attrs"] == "led_4,led_5").all()
