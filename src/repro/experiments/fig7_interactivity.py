"""Figure 7: HAR inter-activity violation matrix (5 x 5).

For each activity a: learn a disjunctive constraint over all persons
(partitioned on the person attribute) from half of a's data; the (a, b) entry
is the violation of b's held-out data against a's constraint.  Expected
shape: low diagonal and the paper's asymmetry — mobile activities violate the
sedentary activities' constraints far more than the reverse (the mobile
activities *envelope* the sedentary ones).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.discovery import discover
from repro.datasets.har import ACTIVITIES, SENSOR_COLS, har_pdf
from repro.experiments import mean_violation_by

#: the paper's Figure 7 matrix, for side-by-side reporting
PAPER = pd.DataFrame(
    [
        [0.05, 0.41, 0.57, 0.68, 0.78],
        [0.62, 0.02, 0.51, 0.56, 0.71],
        [0.57, 0.23, 0.04, 0.59, 0.72],
        [0.21, 0.01, 0.06, 0.00, 0.25],
        [0.12, 0.00, 0.03, 0.02, 0.01],
    ],
    index=["lying", "standing", "sitting", "walking", "running"],
    columns=["lying", "standing", "sitting", "walking", "running"],
)


def run(spark: SparkSession, n_per_cell: int = 150, seed: int = 0) -> pd.DataFrame:
    heldout = spark.createDataFrame(har_pdf(n_per_cell, seed=seed + 1)).cache()
    activities = pd.MultiIndex.from_product([ACTIVITIES], names=["activity"])
    matrix = pd.DataFrame(0.0, index=ACTIVITIES, columns=ACTIVITIES)
    for a in ACTIVITIES:
        train = spark.createDataFrame(har_pdf(n_per_cell, activities=[a], seed=seed))
        constraint = discover(
            train, cols=SENSOR_COLS, partition_attrs=["person"], include_global=False
        )
        matrix.loc[a] = mean_violation_by(heldout, constraint, activities)
    heldout.unpersist()
    return matrix.round(4).reset_index(names="learned_on")
