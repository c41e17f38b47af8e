"""Tests for constraint synthesis (repro.core.discovery)."""
from __future__ import annotations

import uuid

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as Fn

from repro.core.constraints import (
    CompoundConstraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    constraint_to_dict,
)
from repro.core.discovery import (
    DEFAULT_C,
    discover,
    discover_disjunctive,
    discover_simple,
    eligible_partition_attrs,
    simple_from_gram,
    switch_candidates,
)
from repro.core.gram import numeric_columns
from repro.core.scoring import average_violation, violation_numpy
from tests.helpers import catalyst_average, kernel_moments, linear_pdf, piecewise_pdf


def test_simple_constraint_shape(spark):
    df = spark.createDataFrame(linear_pdf(n=400, seed=0))
    c = discover_simple(df)
    assert isinstance(c, SimpleConstraint)
    assert c.n == 400
    assert c.cols == ("a", "b", "c")
    assert sum(b.gamma for b in c.conjuncts) == pytest.approx(1.0)
    for b in c.conjuncts:
        assert b.lb == pytest.approx(b.mean - DEFAULT_C * b.std)
        assert b.ub == pytest.approx(b.mean + DEFAULT_C * b.std)


def test_training_data_mostly_conforms(spark):
    """Relaxed-invariant property |D - Inv| << |D|: with C=4, almost every
    training tuple scores 0."""
    pdf = linear_pdf(n=2000, seed=1)
    c = discover_simple(spark.createDataFrame(pdf))
    v = violation_numpy(c, pdf)
    assert (v == 0).mean() > 0.98
    assert v.mean() < 0.01


def test_planted_invariant_detects_violations(spark):
    """Example 1 analogue: c = a + b + eps on train; a corrupted tuple that
    breaks the arithmetic relationship scores high, a conforming one ~0."""
    pdf = linear_pdf(n=1000, noise=0.05, seed=2)
    c = discover_simple(spark.createDataFrame(pdf))
    conforming = pd.DataFrame({"a": [11.0], "b": [1.0], "c": [12.0]})
    broken = pd.DataFrame({"a": [11.0], "b": [1.0], "c": [25.0]})  # c != a+b
    assert violation_numpy(c, conforming)[0] < 0.05
    assert violation_numpy(c, broken)[0] > 0.3


def test_gamma_weights_low_variance_higher(spark):
    c = discover_simple(spark.createDataFrame(linear_pdf(n=500, noise=0.01, seed=3)))
    stds = [b.std for b in c.conjuncts]
    gammas = [b.gamma for b in c.conjuncts]
    assert gammas[int(np.argmin(stds))] == max(gammas)


def test_disjunctive_branches_per_value(spark):
    pdf = piecewise_pdf(n_per=150, seed=4)
    df = spark.createDataFrame(pdf)
    c = discover_disjunctive(df, "grp", ["x", "y"])
    assert isinstance(c, DisjunctiveConstraint)
    assert set(c.branches) == {"g0", "g1", "g2"}
    for branch in c.branches.values():
        assert branch.n == 150


def test_figure2_global_underfits_partitioned_fits(spark):
    """The Figure 2 scenario: piecewise trends make the global simple
    constraint weak (high min sigma), while per-partition constraints are
    tight and catch a within-range but off-trend tuple."""
    pdf = piecewise_pdf(n_per=200, noise=0.05, seed=5)
    df = spark.createDataFrame(pdf)
    simple = discover_simple(df, ["x", "y"])
    disj = discover_disjunctive(df, "grp", ["x", "y"])
    min_global = min(b.std for b in simple.conjuncts)
    min_local = max(min(b.std for b in br.conjuncts) for br in disj.branches.values())
    assert min_local < min_global / 10
    # x=5 with g0's trend y should be 10; plant y=2 (plausible globally).
    off_trend = pd.DataFrame({"grp": ["g0"], "x": [5.0], "y": [2.0]})
    assert violation_numpy(simple, off_trend)[0] < 0.1
    assert violation_numpy(disj, off_trend)[0] > 0.5


def test_eligible_partition_attrs(spark):
    pdf = linear_pdf(n=200, seed=6)
    pdf["cat"] = [f"v{i % 5}" for i in range(len(pdf))]
    pdf["id"] = [f"row{i}" for i in range(len(pdf))]  # high cardinality
    pdf["const"] = "only"  # single value
    df = spark.createDataFrame(pdf)
    assert eligible_partition_attrs(df, ["a", "b", "c"]) == ["cat"]


def test_discover_compound_structure(spark):
    pdf = piecewise_pdf(n_per=100, seed=7)
    c = discover(spark.createDataFrame(pdf))
    assert isinstance(c, CompoundConstraint)
    kinds = [type(p) for p in c.parts]
    assert kinds == [SimpleConstraint, DisjunctiveConstraint]
    assert c.parts[1].attr == "grp"


def test_discover_without_global(spark):
    pdf = piecewise_pdf(n_per=100, seed=8)
    c = discover(spark.createDataFrame(pdf), include_global=False)
    assert [type(p) for p in c.parts] == [DisjunctiveConstraint]


def test_discover_no_categorical_falls_back_to_simple(spark):
    df = spark.createDataFrame(linear_pdf(n=150, seed=9))
    c = discover(df, include_global=False)
    assert [type(p) for p in c.parts] == [SimpleConstraint]


def test_discover_explicit_numeric_partition_attr(spark):
    pdf = linear_pdf(n=300, seed=10)
    pdf["digit"] = (np.arange(len(pdf)) % 4).astype("int64")
    df = spark.createDataFrame(pdf)
    c = discover(df, cols=["a", "b", "c"], partition_attrs=["digit"], include_global=False)
    (disj,) = c.parts
    assert set(disj.branches) == {"0", "1", "2", "3"}


def test_min_partition_rows_gives_trivial_branch(spark):
    pdf = piecewise_pdf(n_per=100, seed=11)
    tiny = pd.DataFrame({"grp": ["rare"], "x": [1.0], "y": [1.0]})
    df = spark.createDataFrame(pd.concat([pdf, tiny], ignore_index=True))
    c = discover_disjunctive(df, "grp", ["x", "y"], min_partition_rows=5)
    assert c.branches["rare"].conjuncts == ()
    assert violation_numpy(c.branches["rare"], tiny)[0] == 0.0


def test_average_violation_train_near_zero(spark):
    pdf = piecewise_pdf(n_per=200, seed=12)
    df = spark.createDataFrame(pdf)
    c = discover(df)
    assert average_violation(df, c) < 0.02


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("offset", [0.0, 1e5, 1e7, 1e9])
@pytest.mark.parametrize("via", ["kernel", "spark"])
def test_sigma_and_training_violation_wherever_the_data_sits(spark, via, offset, scale):
    """Where the data sits must not change the verdict.  Every discovered
    projection's sigma is np.std of that projection, up to the data's own
    resolution, and the training data conforms to its own constraint.  Once
    through the Gram pass's kernel alone (batches of 700 rows merged in one
    partition), once through Spark on three partitions."""
    cols = ["a", "b", "c"]
    pdf = offset + scale * linear_pdf(n=2000)
    if via == "kernel":
        c = simple_from_gram(kernel_moments(pdf, cols, batch=700))
        train_violation = violation_numpy(c, pdf).mean()
    else:
        df = spark.createDataFrame(pdf).repartition(3)
        c = discover_simple(df, cols)
        train_violation = average_violation(df, c)
    x = pdf[cols].to_numpy()
    resolution = np.spacing(np.abs(x).max())
    for b in c.conjuncts:
        f_std = (x @ np.asarray(b.weights)).std()
        assert abs(b.std - f_std) <= 1e-6 * f_std + 1e3 * resolution
    assert train_violation <= 1e-3


def test_equality_projection_weights(spark):
    pdf = pd.DataFrame(
        {"a": [0.0] * 50, "b": np.random.default_rng(13).normal(0, 1, 50)}
    )
    c = discover_simple(spark.createDataFrame(pdf))
    eq = c.equality_conjuncts(tol=1e-9)
    assert len(eq) == 1
    np.testing.assert_allclose(np.abs(eq[0].weights), [1.0, 0.0], atol=1e-9)


def test_col_means_recorded(spark):
    pdf = linear_pdf(n=200, seed=14)
    c = discover_simple(spark.createDataFrame(pdf))
    np.testing.assert_allclose(
        c.col_means, pdf[["a", "b", "c"]].mean().to_numpy(), rtol=1e-9
    )


def test_only_atomic_non_numeric_columns_are_switch_candidates(spark):
    """Array, map, struct and binary columns are never auto-selected, however
    few values they take; strings, booleans, dates and timestamps are, and
    every engine matches their branches the same way."""
    pdf = piecewise_pdf(n_per=60, seed=15)
    day = {"g0": "2020-01-01 08:00:00", "g1": "2020-01-02 09:30:00.5", "g2": "2020-01-03 00:00:00"}
    pdf["when"] = pd.to_datetime(pdf["grp"].map(day), format="ISO8601")
    df = (
        spark.createDataFrame(pdf)
        .withColumn("day", Fn.to_date("when"))
        .withColumn("arr", Fn.array(Fn.when(Fn.col("grp") == "g0", 1.0).otherwise(2.0)))
        .withColumn("dict", Fn.create_map(Fn.lit("k"), Fn.col("grp")))
        .withColumn("rec", Fn.struct("grp"))
        .withColumn("raw", Fn.col("grp").cast("binary"))
    )
    assert switch_candidates(df, ["x", "y"]) == ["grp", "when", "day"]
    assert eligible_partition_attrs(df, ["x", "y"]) == ["grp", "when", "day"]
    c = discover(df)
    assert [p.attr for p in c.parts[1:]] == ["grp", "when", "day"]
    assert set(c.parts[2].branches) == {
        "2020-01-01 08:00:00", "2020-01-02 09:30:00.500000", "2020-01-03 00:00:00"
    }
    assert average_violation(df, c) == pytest.approx(catalyst_average(df, c), rel=1e-9)
    assert average_violation(df, c) < 0.02


def _spread(spark, pdf, *by):
    """``pdf`` as a cached DataFrame of 8 partitions (hash partitioned on
    ``by`` if given), so that repeated passes see the same row order."""
    df = spark.createDataFrame(pdf).repartition(8, *by).cache()
    df.count()
    return df


def _composed(df, cols=None, partition_attrs=None, include_global=True):
    """``discover`` spelled out as its parts, one Spark pass each."""
    cols = list(cols) if cols is not None else numeric_columns(df)
    if partition_attrs is None:
        partition_attrs = eligible_partition_attrs(df, cols)
    parts = [discover_simple(df, cols)] if include_global or not partition_attrs else []
    parts += [
        discover_disjunctive(df, a, [c for c in cols if c != a]) for a in partition_attrs
    ]
    return CompoundConstraint(parts=tuple(parts))


def _equivalence_pdf(seed: int) -> pd.DataFrame:
    pdf = piecewise_pdf(n_per=200, seed=seed)
    n = len(pdf)
    pdf["half"] = np.where(np.arange(n) % 2 == 0, "even", "odd")
    pdf["wide"] = [f"w{i % 80}" for i in range(n)]  # 80 values, ~10 per partition
    pdf["sparse"] = np.where(np.arange(n) % 7 == 0, "only", None)  # one non-null value
    pdf["gappy"] = np.where(np.arange(n) % 5 == 0, None, pdf["half"])  # nulls in a switch
    pdf["digit"] = (np.arange(n) % 4).astype("int64")
    pdf.loc[::13, "y"] = np.nan  # NaN feature rows
    return pdf


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"include_global": False},
        {"cols": ["x", "y", "digit"], "partition_attrs": ["digit"]},
        {"cols": ["x", "y", "digit"], "partition_attrs": ["digit", "grp"], "include_global": False},
        {"partition_attrs": ["gappy"]},
        {"partition_attrs": []},
    ],
    ids=["auto", "auto-no-global", "explicit-in-cols", "explicit-no-global", "nulls", "none"],
)
def test_discover_equals_composition(spark, kwargs):
    """One fused pass gives exactly the constraint of the separate passes."""
    df = _spread(spark, _equivalence_pdf(seed=16), "wide")
    got = discover(df, **kwargs)
    assert constraint_to_dict(got) == constraint_to_dict(_composed(df, **kwargs))
    if "partition_attrs" not in kwargs:
        # grp, half and gappy qualify; wide has > 50 values overall though
        # never more than 50 in one partition; sparse has one non-null value
        assert [p.attr for p in got.parts if isinstance(p, DisjunctiveConstraint)] == [
            "grp", "half", "gappy"
        ]


def test_null_switch_values_belong_to_no_branch(spark):
    pdf = _equivalence_pdf(seed=17)
    c = discover_disjunctive(_spread(spark, pdf), "gappy", ["x", "y"])
    assert set(c.branches) == {"even", "odd"}
    clean = pdf.dropna(subset=["y"])
    assert sum(b.n for b in c.branches.values()) == clean["gappy"].notna().sum()


def _spark_jobs(spark, fn) -> int:
    sc = spark.sparkContext
    group = f"test-jobs-{uuid.uuid4()}"
    sc.setJobGroup(group, "count the Spark jobs of one call")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"cols": ["x", "y", "digit"], "partition_attrs": ["digit", "grp"]},
        {"include_global": False},
        {"cols": ["x", "y"], "partition_attrs": ["grp"], "include_global": False},
    ],
    ids=["auto", "explicit", "auto-no-global", "explicit-no-global"],
)
def test_discover_launches_one_spark_job(spark, kwargs):
    df = _spread(spark, _equivalence_pdf(seed=18))
    assert _spark_jobs(spark, lambda: discover(df, **kwargs)) == 1
