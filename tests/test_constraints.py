"""Tests for the constraint language representation (repro.core.constraints)."""
from __future__ import annotations

import datetime
from decimal import Decimal

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.constraints import (
    BoundedProjection,
    CompoundConstraint,
    DisjunctiveConstraint,
    EPS_STD,
    SimpleConstraint,
    branch_key,
    branch_keys,
    branch_value,
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
        DisjunctiveConstraint(
            attr="g",
            attr_type="double",
            branches={"0.5": _simple(), "1e+16": SimpleConstraint(conjuncts=())},
        ),
        CompoundConstraint(
            parts=(
                _simple(),
                DisjunctiveConstraint(attr="g", attr_type="string", branches={"x": _simple()}),
            )
        ),
    ],
    ids=["simple", "disjunctive", "compound"],
)
def test_serialization_round_trip(constraint):
    assert constraint_from_dict(constraint_to_dict(constraint)) == constraint


def test_serialization_is_json_compatible():
    import json

    disjunctive = DisjunctiveConstraint(attr="g", attr_type="string", branches={"x": _simple()})
    c = CompoundConstraint(parts=(_simple(), disjunctive))
    assert constraint_from_dict(json.loads(json.dumps(constraint_to_dict(c)))) == c


def test_from_dict_requires_the_switch_type():
    """A disjunctive constraint's keys mean nothing without the switch type
    they parse in, so a dict without it is rejected, not guessed."""
    d = constraint_to_dict(DisjunctiveConstraint(attr="g", attr_type="bigint", branches={}))
    assert d["attr_type"] == "bigint"
    del d["attr_type"]
    with pytest.raises(KeyError):
        constraint_from_dict(d)


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
        (pd.Timestamp("2020-01-02 03:04:05.250"), "2020-01-02 03:04:05.250000"),
        (None, None),
        (np.nan, None),
        (pd.NaT, None),
        (1e7, "10000000.0"),
        (1e-4, "0.0001"),
        (-123456789.0, "-123456789.0"),
        (np.float32(0.1), "0.1"),
        (float("inf"), "inf"),
        (-0.0, "0.0"),
        (np.float32(-0.0), "0.0"),
        (1e16, "1e+16"),
        (5e-324, "5e-324"),
        (np.float32(123456790.0), "123456790.0"),
    ],
)
def test_branch_key_matches_cast_as_string(value, key):
    """The display key of a switch value.  For strings, integers, booleans,
    decimals, dates and whole-second timestamps it is Spark's CAST(value AS
    STRING), so their keys (and the results tables) read as Spark prints
    them; floats take Python's shortest digits, -0.0 keys as "0.0" (it
    equals 0.0), timestamps print as pandas prints them; null has no key."""
    assert branch_key(value) == key


_TYPED_VALUES = [
    ("g0", "string"),
    ("O'Hare", "string"),
    (True, "boolean"),
    (False, "boolean"),
    (3, "bigint"),
    (-7, "int"),
    (2.5, "double"),
    (-0.0, "double"),
    (1e7, "double"),
    (1e-4, "double"),
    (-123456789.0, "double"),
    (1e16, "double"),
    (5e-324, "double"),
    (1.2345678901234566e17, "double"),
    (float("inf"), "double"),
    (float("-inf"), "double"),
    (np.float32(0.1), "float"),
    (np.float32(7.5e7), "float"),
    (np.float32(123456790.0), "float"),
    (np.float32(1.2573022e-10), "float"),
    (Decimal("1.50"), "decimal(10,2)"),
    (datetime.date(2020, 1, 2), "date"),
    (pd.Timestamp("2020-01-02 03:04:05"), "timestamp"),
    (pd.Timestamp("2020-01-02 03:04:05.250"), "timestamp"),
]


def test_branch_key_round_trips(spark):
    """``CAST(branch_key(v) AS type)`` is ``v`` in Spark and in DuckDB, and
    ``branch_value`` parses the key back to ``v``: every engine matches a
    branch by the value it was learned on."""
    keys = [branch_key(v) for v, _ in _TYPED_VALUES]
    casts = ", ".join(
        f"CAST('{k.replace(chr(39), chr(39) * 2)}' AS {t}) AS c{i}"
        for i, (k, (_, t)) in enumerate(zip(keys, _TYPED_VALUES))
    )
    in_spark = list(spark.sql(f"SELECT {casts}").first())
    con = duckdb.connect()
    try:
        in_duckdb = list(con.execute(f"SELECT {casts}").fetchone())
    finally:
        con.close()
    for (v, t), k, s, d in zip(_TYPED_VALUES, keys, in_spark, in_duckdb):
        assert branch_value(k, t) == v and type(branch_value(k, t)) is type(v), (v, t, k)
        assert s == v, (v, t, k, s)
        assert d == v, (v, t, k, d)


def test_branch_keys_vectorized():
    keys = branch_keys(pd.Series([True, None, False, True], dtype=object), "boolean")
    assert keys.tolist() == ["true", None, "false", "true"]


def test_branch_keys_of_a_float_column():
    """A float (float32) column keys with float32's own shortest digits,
    which ``factorize``, widening to float64, would lose."""
    values = pd.Series(np.array([0.1, 1e7, np.nan, 1.2573022e-10], dtype=np.float32))
    keys = branch_keys(values, "float")
    assert keys.tolist() == ["0.1", "10000000.0", None, "1.2573022e-10"]
