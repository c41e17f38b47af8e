"""Figure 4: tuple-granularity violation vs prediction error on Mixed.

The paper samples 1000 tuples from the Mixed split, sorts them by violation
descending, and shows that high-violation tuples incur high absolute
prediction error.  We reproduce the underlying numbers as (a) the Pearson
correlation between violation and absolute error and (b) a violation-decile
table (mean violation / mean |error| per decile), which captures the plot's
monotone shape.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.discovery import discover
from repro.core.scoring import score
from repro.datasets.airlines import FEATURE_COLS, TARGET, splits_pdf
from repro.ml.linreg import fit_ols


def run(
    spark: SparkSession,
    n_train: int = 50_000,
    n_sample: int = 1_000,
    seed: int = 0,
) -> dict[str, pd.DataFrame]:
    splits = splits_pdf(n_train=n_train, n_test=max(n_sample, 1000), seed=seed)
    train = spark.createDataFrame(splits["train"].drop(columns=["is_overnight"]))
    mixed = spark.createDataFrame(
        splits["mixed"].drop(columns=["is_overnight"]).head(n_sample)
    )

    constraint = discover(train, cols=FEATURE_COLS)
    model = fit_ols(train, FEATURE_COLS, TARGET)

    tuples = score(mixed, constraint).toPandas()
    x = tuples[list(model.feature_cols)].to_numpy(dtype=np.float64)
    scored = pd.DataFrame(
        {
            "violation": tuples["violation"],
            "abs_error": np.abs(tuples[TARGET] - model.predict_numpy(x)),
        }
    )
    scored = scored.sort_values("violation", ascending=False).reset_index(drop=True)

    # guard against zero-variance degenerate samples
    pcc = (
        float(np.corrcoef(scored["violation"], scored["abs_error"])[0, 1])
        if scored["violation"].std() > 0
        else float("nan")
    )
    scored["decile"] = pd.qcut(
        scored["violation"].rank(method="first"), 10, labels=False
    )
    deciles = (
        scored.groupby("decile")
        .agg(mean_violation=("violation", "mean"), mean_abs_error=("abs_error", "mean"))
        .reset_index()
    )
    summary = pd.DataFrame(
        {
            "n_sample": [len(scored)],
            "pearson_violation_abs_error": [pcc],
            "paper_note": ["Figure 4 shows a strong positive association (no scalar reported)"],
        }
    )
    return {"summary": summary, "deciles": deciles}
