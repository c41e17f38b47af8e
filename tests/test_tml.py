"""Tests for Section 5 (trusted machine learning) using the paper's examples."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import BooleanType

from repro.core.discovery import discover, discover_simple
from repro.core.scoring import violation_col, violation_numpy
from repro.datasets.airlines import FEATURE_COLS, splits_pdf
from repro.tml import equality_check_non_conforming, flag_non_conforming, ite
from tests.helpers import piecewise_pdf

#: Example 5's annotated dataset: D = {(0,1),(0,2),(0,3)}, Y = [1,2,3].
D_EX5 = pd.DataFrame({"A1": [0.0, 0.0, 0.0], "A2": [1.0, 2.0, 3.0]})
Y_EX5 = np.array([1.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def constraint_ex5(spark):
    return discover_simple(spark.createDataFrame(D_EX5))


def test_example5_equality_invariant_found(constraint_ex5):
    """Discovery on D recovers the equality invariant A1 = 0 (Example 6/8)."""
    eq = constraint_ex5.equality_conjuncts()
    assert len(eq) == 1
    np.testing.assert_allclose(np.abs(eq[0].weights), [1.0, 0.0], atol=1e-9)
    assert eq[0].mean == pytest.approx(0.0, abs=1e-9)


def test_example5_nonconforming_tuple_flagged(constraint_ex5):
    """(1,4) is non-conforming (violates A1=0); (0,4) is conforming."""
    t = pd.DataFrame({"A1": [1.0, 0.0], "A2": [4.0, 4.0]})
    v = violation_numpy(constraint_ex5, t)
    assert v[0] > 0.3
    assert v[1] == pytest.approx(0.0, abs=1e-9)


def test_equality_check_sufficient(constraint_ex5):
    t = pd.DataFrame({"A1": [1.0, 0.0, -0.5], "A2": [4.0, 4.0, 2.0]})
    flags = equality_check_non_conforming(constraint_ex5, t)
    np.testing.assert_array_equal(flags, [True, False, True])


def test_flag_non_conforming_spark(spark, constraint_ex5):
    t = pd.DataFrame({"A1": [1.0, 0.0], "A2": [4.0, 4.0]})
    out = flag_non_conforming(spark.createDataFrame(t), constraint_ex5).toPandas()
    assert out.sort_values("A1")["non_conforming"].tolist() == [False, True]


def _assert_flags_match_catalyst_twin(df, c) -> list[pd.DataFrame]:
    """``flag_non_conforming`` keeps every column of ``df`` and adds a
    boolean flag equal, row for row, to ``violation_col(c) > threshold``.
    Returns the flagged rows at each threshold."""
    twin = df.withColumn("twin", violation_col(c)).cache()
    flagged = []
    for threshold in (0.0, 0.05):
        out = flag_non_conforming(twin, c, threshold=threshold)
        assert out.columns == [*df.columns, "twin", "non_conforming"]
        assert out.schema["non_conforming"].dataType == BooleanType()
        rows = out.toPandas()
        want = (rows["twin"] > threshold).to_numpy()
        assert 0 < want.sum() < len(rows)
        np.testing.assert_array_equal(rows["non_conforming"].to_numpy(), want)
        flagged.append(rows[want])
    twin.unpersist()
    return flagged


def test_flags_match_catalyst_twin_on_airlines(spark):
    """An airlines-shaped compound constraint (global part and a carrier
    switch over the Fig 3 features), learned on daytime flights and applied
    to the mixed split."""
    splits = splits_pdf(n_train=2_000, n_test=400, seed=3)
    train, mixed = (
        spark.createDataFrame(splits[k].drop(columns=["is_overnight"])) for k in ("train", "mixed")
    )
    c = discover(train, cols=FEATURE_COLS)
    assert len(c.parts) > 1
    _assert_flags_match_catalyst_twin(mixed, c)


def test_flags_match_catalyst_twin_on_missing_values(spark):
    """A switch value no branch has seen, a null switch value and a NaN
    feature each score 1 on a part, so both engines flag all three tuples."""
    pdf = piecewise_pdf(n_per=50, seed=4)
    c = discover(spark.createDataFrame(pdf))
    pdf = pdf.astype({"grp": object})
    pdf.loc[[0, 1, 2], "grp"] = ["g9", None, "g0"]
    pdf.loc[2, "x"] = np.nan
    df = spark.createDataFrame(pdf, "grp string, x double, y double")
    for rows in _assert_flags_match_catalyst_twin(df, c):
        missing = rows["grp"].isna() | (rows["grp"] == "g9") | rows["x"].isna()
        assert missing.sum() == 3


def test_theorem7_model_transformation():
    """Theorem 7's constructive proof on Example 8: f(A1,A2)=A2 fits [D;Y];
    g = λτ. f(ite(F(τ), t1, τ)) with F=A1 also fits [D;Y] but disagrees with
    f on t=(1,4) — certifying t as non-conforming."""
    d = D_EX5.to_numpy()
    t1 = d[0]

    def f(x: np.ndarray) -> np.ndarray:
        return x[:, 1]

    def F(x: np.ndarray) -> np.ndarray:  # the equality invariant's projection
        return x[:, 0]

    def g(x: np.ndarray) -> np.ndarray:
        return f(ite(F(x), t1, x))

    np.testing.assert_allclose(f(d), Y_EX5)
    np.testing.assert_allclose(g(d), Y_EX5)  # A1: F(D) = 0 -> g = f on D
    t = np.array([[1.0, 4.0]])
    assert f(t)[0] == 4.0
    assert g(t)[0] == 1.0  # ite sends t to t1; f(t1) = y1 = 1
    assert f(t)[0] != g(t)[0]


def test_ite_combinator_endpoints():
    t_const = np.array([9.0, 9.0])
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(ite(np.array([0.0, 0.0]), t_const, t), t)
    np.testing.assert_allclose(
        ite(np.array([1.0, 1.0]), t_const, t), np.tile(t_const, (2, 1))
    )


def test_nontrivial_dataset_precondition():
    """Theorem 7 needs a nontrivial [D;Y] (two labels differ) — Example 5's is."""
    assert len(np.unique(Y_EX5)) > 1


def test_violation_correlates_with_model_disagreement(spark):
    """End-to-end §5 intuition: on tuples far from the A1=0 precondition, the
    two consistent models f=A2 and g=A1+A2 disagree by exactly |A1|, and the
    violation score grows with that disagreement."""
    c = discover_simple(spark.createDataFrame(D_EX5))
    a1 = np.array([0.0, 1e-3, 0.1, 1.0, 5.0])
    t = pd.DataFrame({"A1": a1, "A2": np.full(5, 2.0)})
    v = violation_numpy(c, t)
    disagreement = np.abs(a1)
    assert all(np.diff(v) >= -1e-12)  # monotone in |A1|
    assert v[0] == 0.0 and (v[1:] > 0).all()
    # the equality atom saturates fast, so use rank (not linear) correlation
    rank = lambda x: np.argsort(np.argsort(x))
    assert np.corrcoef(rank(v), rank(disagreement))[0, 1] > 0.95
