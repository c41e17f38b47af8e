"""Figure 6: HAR inter-person violation matrix (15 x 15).

For each person p: learn a disjunctive constraint over all activities
(partitioned on the activity attribute) from half of p's data.  The (p, q)
entry is the activity-wise average violation of q's *held-out* half against
p's constraint.  Expected shape: near-zero diagonal; persons with extreme
fitness/BMI metadata (p3, p8, p15) produce high rows/columns.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.discovery import discover
from repro.datasets.har import ACTIVITIES, PERSON_META, PERSONS, SENSOR_COLS, har_pdf
from repro.experiments import mean_violation_by


def run(spark: SparkSession, n_per_cell: int = 150, seed: int = 0) -> pd.DataFrame:
    # half for learning (seed), half held out (seed+1)
    train_halves = {
        p: spark.createDataFrame(har_pdf(n_per_cell, persons=[p], seed=seed))
        for p in PERSONS
    }
    heldout = spark.createDataFrame(
        har_pdf(n_per_cell, seed=seed + 1)
    ).cache()
    cells = pd.MultiIndex.from_product([PERSONS, ACTIVITIES], names=["person", "activity"])

    matrix = pd.DataFrame(0.0, index=PERSONS, columns=PERSONS)
    for p in PERSONS:
        constraint = discover(
            train_halves[p],
            cols=SENSOR_COLS,
            partition_attrs=["activity"],
            include_global=False,
        )
        # activity-wise violation, then average over activities, per person q
        cell_means = mean_violation_by(heldout, constraint, cells)
        matrix.loc[p] = cell_means.reshape(len(PERSONS), len(ACTIVITIES)).mean(axis=1)
    heldout.unpersist()

    out = matrix.round(4)
    out["fitness"], out["bmi"], out["gender"] = zip(*[PERSON_META[p] for p in PERSONS])
    return out.reset_index(names="learned_on")
