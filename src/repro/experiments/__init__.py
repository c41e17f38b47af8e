"""Experiment harnesses: one module per table of the paper's Section 6.

Every module exposes ``run(spark, ...) -> pandas.DataFrame`` (or a dict of
frames) printing-ready rows matching the paper's table, with the paper's
published numbers alongside where the paper prints them.
``jobs/run.py <module>`` runs one of them under ``spark-submit`` or plain
``python``; ``benchmarks/`` times them; EXPERIMENTS.md records
paper-vs-measured values.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.constraints import Constraint
from repro.core.scoring import compile_constraint, mean_over_rows


def mean_violation_by(df: DataFrame, constraint: Constraint, groups: pd.MultiIndex) -> np.ndarray:
    """The mean violation of each group of ``df``'s tuples, in the order of
    ``groups``, whose level names are the key columns.

    One ``scoring.mean_over_rows`` pass and no ``groupBy``: a tuple of group
    g contributes ``[v * onehot(g), onehot(g)]``, so a group's mean is its
    first sum over its second (the one-hot trick of ``drift.cd``'s
    histograms).
    """
    table = compile_constraint(constraint)
    keys, k = list(groups.names), len(groups)

    def per_row(pdf: pd.DataFrame) -> np.ndarray:
        onehot = groups.get_indexer(pd.MultiIndex.from_frame(pdf[keys]))[:, None] == np.arange(k)
        return np.hstack([table.violation(pdf)[:, None] * onehot, onehot])

    sums = mean_over_rows(df, list(dict.fromkeys([*keys, *table.columns])), per_row, 2 * k)
    return sums[:k] / sums[k:]
