"""Figure 8: drift quantification on the EVL benchmark — DISYNTH vs
PCA-SPLL vs CD-MKL vs CD-Area, across 16 non-stationary datasets.

Per dataset: learn every method's model on window 0, score each subsequent
window, normalize each curve to [0, 1] by its own max (the paper normalizes
because methods report drift on different scales), and compare with the
generator's ground-truth drift curve via Pearson correlation.  Expected
shape: DISYNTH tracks the ground truth everywhere; PCA-SPLL collapses to 0
on the rotation-symmetric local-drift datasets (4CR, 4CRE-V2, FG-2C-2D);
CD is noisier and blurs drift magnitudes.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.discovery import discover
from repro.core.scoring import average_violation
from repro.datasets.evl import EVL_DATASETS, evl_windows_pdf, ground_truth_drift
from repro.drift.cd import cd_divergences, fit_cd
from repro.drift.pca_spll import fit_pca_spll, spll_drift

#: datasets where the paper reports PCA-SPLL failing outright
PAPER_SPLL_FAILS = ("4CR", "4CRE-V2", "FG-2C-2D")

METHODS = ("disynth", "pca_spll", "cd_mkl", "cd_area")


def _normalize(curve: np.ndarray) -> np.ndarray:
    top = curve.max()
    return curve / top if top > 0 else curve


def _corr(curve: np.ndarray, gt: np.ndarray) -> float:
    if curve.std() == 0 or gt.std() == 0:
        return 0.0
    return float(np.corrcoef(curve, gt)[0, 1])


def run_dataset(
    spark: SparkSession,
    name: str,
    n_windows: int = 12,
    n_per_class: int = 400,
    seed: int = 0,
) -> tuple[pd.DataFrame, int]:
    """Normalized drift curves (one column per method + ground truth), and
    the number of components PCA-SPLL retained on window 0."""
    windows = evl_windows_pdf(name, n_windows=n_windows, n_per_class=n_per_class, seed=seed)
    dfs = [spark.createDataFrame(w) for w in windows]
    num_cols = [c for c in windows[0].columns if c != "label"]

    disynth = discover(dfs[0], cols=num_cols, partition_attrs=["label"])
    spll = fit_pca_spll(dfs[0], num_cols)
    cd = fit_cd(dfs[0], num_cols, k=min(2, len(num_cols)))

    curves: dict[str, list[float]] = {m: [] for m in METHODS}
    for df in dfs:
        curves["disynth"].append(average_violation(df, disynth))
        curves["pca_spll"].append(spll_drift(df, spll))
        d = cd_divergences(df, cd)
        curves["cd_mkl"].append(d["mkl"])
        curves["cd_area"].append(d["area"])

    out = pd.DataFrame({m: _normalize(np.asarray(v)) for m, v in curves.items()})
    out.insert(0, "window", np.arange(n_windows))
    out["ground_truth"] = ground_truth_drift(name, n_windows=n_windows)
    return out, spll.n_retained


def run(
    spark: SparkSession,
    datasets: tuple[str, ...] = tuple(EVL_DATASETS),
    n_windows: int = 12,
    n_per_class: int = 400,
    seed: int = 0,
) -> pd.DataFrame:
    """The Figure 8 summary table: per (dataset, method) correlation of the
    normalized drift curve with the ground truth."""
    rows = []
    for name in datasets:
        curves, retained = run_dataset(
            spark, name, n_windows=n_windows, n_per_class=n_per_class, seed=seed
        )
        gt = curves["ground_truth"].to_numpy()
        row = {"dataset": name}
        for m in METHODS:
            row[f"corr_{m}"] = round(_corr(curves[m].to_numpy(), gt), 3)
        row["spll_retained_components"] = retained
        row["paper_spll_fails"] = name in PAPER_SPLL_FAILS
        rows.append(row)
    return pd.DataFrame(rows)
