"""Figure 10: ExTuNe non-conformance explanations.

(a-c) Cardio / Mobile / House: constraints learned on one class (healthy /
cheap / <=100K), responsibilities computed over the other class (diseased /
expensive / >=300K).  Expected shapes: cardio blames ``ap_hi``/``ap_lo``;
mobile blames ``ram``; house spreads responsibility holistically.

(d) LED: constraints from window 0 (disjunctive over ``digit``); per window,
average responsibility per LED attribute.  The malfunction schedule —
{}, {4,5}, {1,3}, {2,7} every 5 windows — must show up as the top-responsible
attributes.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.discovery import discover, discover_simple
from repro.datasets.health import CASE_STUDIES
from repro.datasets.led import LED_COLS, led_windows_pdf, malfunctioning_leds
from repro.explain.extune import responsibilities

#: the paper's qualitative findings per case study
PAPER_TOP = {
    "cardio": ["ap_hi", "ap_lo"],
    "mobile": ["ram"],
    "house": [],  # "holistic": no dominant attribute
}


def run_case_studies(
    spark: SparkSession,
    n_train: int = 4000,
    n_test: int = 600,
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for name, gen in CASE_STUDIES.items():
        train_pdf, test_pdf = gen(n_train=n_train, n_test=n_test, seed=seed + hashs(name))
        cols = list(train_pdf.columns)
        constraint = discover_simple(spark.createDataFrame(train_pdf), cols)
        resp = responsibilities(spark.createDataFrame(test_pdf), constraint, cols)
        for attr, r in resp.sort_values(ascending=False).items():
            rows.append(
                {
                    "dataset": name,
                    "attribute": attr,
                    "responsibility": round(float(r), 4),
                    "paper_top_attrs": ",".join(PAPER_TOP[name]) or "(holistic)",
                }
            )
    return pd.DataFrame(rows)


def run_led(
    spark: SparkSession,
    n_windows: int = 20,
    n_per_window: int = 2000,
    n_explain: int = 300,
    seed: int = 0,
) -> pd.DataFrame:
    windows = led_windows_pdf(n_windows=n_windows, n=n_per_window, seed=seed)
    constraint = discover(
        spark.createDataFrame(windows[0]),
        cols=LED_COLS,
        partition_attrs=["digit"],
        include_global=False,
    )
    rows = []
    for w, pdf in enumerate(windows):
        resp = responsibilities(
            spark.createDataFrame(pdf.head(n_explain)), constraint, LED_COLS
        )
        row = {"window": w, "planted_malfunction": ",".join(map(str, malfunctioning_leds(w)))}
        for attr, r in resp.items():
            row[attr] = round(float(r), 4)
        top = resp.sort_values(ascending=False)
        row["top_attr"] = top.index[0] if top.iloc[0] > 0.15 else "(none)"
        row["top2_attrs"] = (
            ",".join(sorted(top.index[:2])) if top.iloc[0] > 0.15 else "(none)"
        )
        rows.append(row)
    return pd.DataFrame(rows)


def hashs(name: str) -> int:
    import zlib

    return zlib.crc32(name.encode()) % 1000


def run(spark: SparkSession) -> dict[str, pd.DataFrame]:
    return {
        "case_studies": run_case_studies(spark),
        "led": run_led(spark),
    }
