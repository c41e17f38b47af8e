"""Tests for the constraint language representation (repro.core.constraints)."""
from __future__ import annotations

import datetime
from decimal import Decimal

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import FloatType

from repro.core.constraints import (
    BoundedProjection,
    CompoundConstraint,
    DisjunctiveConstraint,
    EPS_STD,
    SimpleConstraint,
    branch_key,
    branch_keys,
    constraint_from_dict,
    constraint_to_dict,
    normalize_gammas,
)


def _atom(std=1.0, gamma=1.0, mean=0.0):
    return BoundedProjection(
        cols=("a", "b"),
        weights=(0.6, 0.8),
        mean=mean,
        std=std,
        lb=mean - 4 * std,
        ub=mean + 4 * std,
        gamma=gamma,
    )


def _simple():
    return SimpleConstraint(
        conjuncts=(_atom(std=0.5, gamma=0.7), _atom(std=2.0, gamma=0.3)),
        col_means=(1.0, -2.0),
        n=100,
    )


def test_alpha_is_inverse_std():
    assert _atom(std=0.5).alpha == pytest.approx(2.0)


def test_alpha_floor_for_zero_std():
    assert _atom(std=0.0).alpha == pytest.approx(1.0 / EPS_STD)


def test_is_equality():
    assert _atom(std=0.0).is_equality()
    assert _atom(std=1e-12).is_equality()
    assert not _atom(std=0.1).is_equality()


def test_equality_conjuncts():
    s = SimpleConstraint(conjuncts=(_atom(std=0.0), _atom(std=1.0)))
    assert len(s.equality_conjuncts()) == 1


def test_simple_cols():
    assert _simple().cols == ("a", "b")
    assert SimpleConstraint(conjuncts=()).cols == ()


@pytest.mark.parametrize(
    "constraint",
    [
        _simple(),
        DisjunctiveConstraint(attr="g", branches={"x": _simple(), "y": SimpleConstraint(conjuncts=())}),
        CompoundConstraint(
            parts=(
                _simple(),
                DisjunctiveConstraint(attr="g", branches={"x": _simple()}),
            )
        ),
    ],
    ids=["simple", "disjunctive", "compound"],
)
def test_serialization_round_trip(constraint):
    assert constraint_from_dict(constraint_to_dict(constraint)) == constraint


def test_serialization_is_json_compatible():
    import json

    c = CompoundConstraint(parts=(_simple(), DisjunctiveConstraint(attr="g", branches={"x": _simple()})))
    assert constraint_from_dict(json.loads(json.dumps(constraint_to_dict(c)))) == c


def test_to_dict_rejects_non_constraint():
    with pytest.raises(TypeError):
        constraint_to_dict(42)  # type: ignore[arg-type]


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        constraint_from_dict({"kind": "nope"})


def test_normalize_gammas_sums_to_one():
    g = normalize_gammas([1.0, 3.0])
    assert g == [0.25, 0.75]
    assert sum(g) == pytest.approx(1.0)


def test_normalize_gammas_empty_and_degenerate():
    assert normalize_gammas([]) == []
    assert normalize_gammas([0.0, 0.0]) == [0.5, 0.5]


@pytest.mark.parametrize(
    "value,key",
    [
        ("g0", "g0"),
        (True, "true"),
        (np.bool_(False), "false"),
        (3, "3"),
        (np.int64(3), "3"),
        (2.5, "2.5"),
        (Decimal("1.50"), "1.50"),
        (datetime.date(2020, 1, 2), "2020-01-02"),
        (pd.Timestamp("2020-01-02 03:04:05"), "2020-01-02 03:04:05"),
        (pd.Timestamp("2020-01-02 03:04:05.250"), "2020-01-02 03:04:05.25"),
        (None, None),
        (np.nan, None),
        (pd.NaT, None),
        (1e7, "1.0E7"),
        (1e-4, "1.0E-4"),
        (-123456789.0, "-1.23456789E8"),
        (np.float32(0.1), "0.1"),
        (float("inf"), "Infinity"),
    ],
)
def test_branch_key_matches_cast_as_string(value, key):
    """Spark's CAST(value AS STRING), which DuckDB's matches except on floats
    outside [1e-3, 1e7); null has no key."""
    assert branch_key(value) == key


def test_branch_keys_vectorized():
    keys = branch_keys(pd.Series([True, None, False, True], dtype=object))
    assert keys.tolist() == ["true", None, "false", "true"]


def test_branch_keys_of_a_float_column():
    """Spark's CAST prints a float (float32) with its own shortest digits."""
    values = pd.Series(np.array([0.1, 1e7, np.nan, 1.2573022e-10], dtype=np.float32))
    keys = branch_keys(values, FloatType())
    assert keys.tolist() == ["0.1", "1.0E7", None, "1.2573022E-10"]
