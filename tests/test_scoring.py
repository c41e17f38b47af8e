"""Tests for the quantitative semantics (repro.core.scoring).

The evaluators derived from a constraint's atom table (numpy scorer, DuckDB
SQL text, Catalyst column) must agree with each other and with the per-atom
reference walk in ``tests/helpers.py``, and the semantics must satisfy the
properties of Section 3.2 and Lemma 1.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.constraints import (
    BoundedProjection,
    CompoundConstraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    constraint_from_dict,
    constraint_to_dict,
)
from repro.core.discovery import discover
from repro.core.scoring import (
    average_violation,
    compile_constraint,
    score,
    violation_numpy,
    violation_sql,
)
from repro.explain.extune import responsibilities
from repro.oracle import assert_equivalent
from repro.tml import flag_non_conforming
from tests.helpers import (
    catalyst_average,
    catalyst_score,
    linear_pdf,
    on_executors,
    piecewise_pdf,
    violation_reference,
)


def _atom(mean=0.0, std=1.0, gamma=1.0, weights=(1.0, 0.0), C=4.0):
    return BoundedProjection(
        cols=("a", "b"),
        weights=weights,
        mean=mean,
        std=std,
        lb=mean - C * std,
        ub=mean + C * std,
        gamma=gamma,
    )


def _random_simple(seed: int) -> SimpleConstraint:
    g = np.random.default_rng(seed)
    atoms = []
    raw = g.random(3) + 0.1
    raw = raw / raw.sum()
    for k in range(3):
        w = g.normal(size=2)
        w = w / np.linalg.norm(w)
        atoms.append(
            _atom(
                mean=float(g.normal()),
                std=float(abs(g.normal()) + 0.05),
                gamma=float(raw[k]),
                weights=tuple(w),
            )
        )
    return SimpleConstraint(conjuncts=tuple(atoms))


def _pdf(seed: int, n: int = 200) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame({"a": g.normal(0, 5, n), "b": g.normal(0, 5, n)})


# ---------------------------------------------------------------------------
# evaluator agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pandas_engine_matches_numpy(spark, seed):
    c = _random_simple(seed)
    pdf = _pdf(seed + 50)
    got = score(spark.createDataFrame(pdf), c).toPandas()
    ref = violation_numpy(c, pdf)
    np.testing.assert_allclose(np.sort(got["violation"]), np.sort(ref), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_pandas_engine_matches_duckdb_oracle_simple(spark, seed):
    """The SQL mirror of the violation expression, evaluated by DuckDB, must
    equal the default (pandas) engine's scores — catches any drift between
    the two."""
    c = _random_simple(seed)
    pdf = _pdf(seed + 80, n=150)
    got = score(spark.createDataFrame(pdf), c).select("a", "b", "violation")
    assert_equivalent(
        got,
        f"SELECT a, b, {violation_sql(c)} AS violation FROM d",
        d=pdf,
    )


def test_pandas_engine_matches_duckdb_oracle_compound(spark):
    branches = {"u": _random_simple(10), "v": _random_simple(11)}
    c = CompoundConstraint(
        parts=(
            _random_simple(12),
            DisjunctiveConstraint(attr="g", attr_type="string", branches=branches),
        )
    )
    pdf = _pdf(90, n=120)
    pdf["g"] = np.where(np.arange(len(pdf)) % 3 == 0, "u", np.where(np.arange(len(pdf)) % 3 == 1, "v", "w"))
    got = score(spark.createDataFrame(pdf), c).select("a", "b", "g", "violation")
    assert_equivalent(
        got,
        f"SELECT a, b, g, {violation_sql(c)} AS violation FROM d",
        d=pdf,
    )


def test_numpy_matches_catalyst_disjunctive_with_int_keys(spark):
    branches = {"0": _random_simple(20), "1": _random_simple(21)}
    c = DisjunctiveConstraint(attr="k", attr_type="bigint", branches=branches)
    pdf = _pdf(91, n=100)
    pdf["k"] = (np.arange(len(pdf)) % 3).astype("int64")  # value 2 unseen
    got = score(spark.createDataFrame(pdf), c).toPandas()
    ref = violation_numpy(c, pdf)
    np.testing.assert_allclose(np.sort(got["violation"]), np.sort(ref), rtol=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_pandas_and_catalyst_engines_agree(spark, seed):
    """The Arrow-vectorized default engine and the pure Catalyst expression
    must produce identical scores (they are independent implementations)."""
    branches = {"u": _random_simple(60 + seed), "v": _random_simple(61 + seed)}
    c = CompoundConstraint(
        parts=(
            _random_simple(62 + seed),
            DisjunctiveConstraint(attr="g", attr_type="string", branches=branches),
        )
    )
    pdf = _pdf(63 + seed, n=150)
    pdf["g"] = np.where(np.arange(len(pdf)) % 2 == 0, "u", "v")
    df = spark.createDataFrame(pdf)
    a = score(df, c).toPandas().sort_values(["a", "b"])
    b = catalyst_score(df, c).toPandas().sort_values(["a", "b"])
    np.testing.assert_allclose(a["violation"].to_numpy(), b["violation"].to_numpy(), rtol=1e-9)
    assert average_violation(df, c) == pytest.approx(catalyst_average(df, c), rel=1e-9)


def test_catalyst_engine_against_duckdb_oracle(spark):
    """Catalyst expression evaluation (not the pandas kernel) vs DuckDB."""
    c = _random_simple(70)
    pdf = _pdf(71, n=120)
    got = catalyst_score(spark.createDataFrame(pdf), c).select("a", "b", "violation")
    assert_equivalent(got, f"SELECT a, b, {violation_sql(c)} AS violation FROM d", d=pdf)


def test_constraint_columns():
    def columns(c):
        t = compile_constraint(c)
        return t.cols, tuple(sw.attr for sw in t.switches)

    s = _random_simple(80)
    assert columns(s) == (("a", "b"), ())
    d = DisjunctiveConstraint(attr="g", attr_type="string", branches={"x": s})
    assert columns(d) == (("a", "b"), ("g",))
    cc = CompoundConstraint(parts=(s, d))
    assert columns(cc) == (("a", "b"), ("g",))


#: (attribute, Spark type, branch keys) of the random constraints' switches.
SWITCHES = (("g", "string", ["u", "v", "w", "1"]), ("h", "bigint", ["0", "1", "2", "7"]))


def _random_constraint(g: np.random.Generator, cols: list[str]):
    """A random simple, disjunctive or compound constraint whose parts read
    random subsets of ``cols`` in random orders and switch on one of
    ``SWITCHES``."""

    def simple() -> SimpleConstraint:
        used = tuple(str(c) for c in g.permutation(cols)[: g.integers(1, len(cols) + 1)])
        gammas = g.random(int(g.integers(0, 4))) + 0.1
        atoms = []
        for gamma in gammas / gammas.sum():
            w = g.normal(size=len(used))
            mean, std = float(g.normal()), float(abs(g.normal()) + 0.05)
            atoms.append(
                BoundedProjection(
                    cols=used,
                    weights=tuple(w / np.linalg.norm(w)),
                    mean=mean,
                    std=std,
                    lb=mean - 2 * std,
                    ub=mean + 2 * std,
                    gamma=float(gamma),
                )
            )
        return SimpleConstraint(conjuncts=tuple(atoms))

    def disjunctive() -> DisjunctiveConstraint:
        attr, attr_type, pool = SWITCHES[g.integers(len(SWITCHES))]
        keys = g.choice(pool, size=g.integers(0, 4), replace=False)
        branches = {str(k): simple() for k in keys}
        return DisjunctiveConstraint(attr=attr, attr_type=attr_type, branches=branches)

    kind = g.integers(3)
    if kind == 0:
        return simple()
    if kind == 1:
        return disjunctive()
    return CompoundConstraint(
        parts=tuple(simple() if g.random() < 0.4 else disjunctive() for _ in range(g.integers(4)))
    )


def test_compiled_scorer_matches_reference():
    """The atom-table scorer equals the per-atom tree walk on random simple,
    disjunctive and compound constraints, unseen and null switch keys
    included.  Compound constraints switch on a string and on a bigint
    (which reaches pandas as float64, NaN for null), so a tuple can match a
    branch of one switch and miss on the other."""
    g = np.random.default_rng(4)
    cols = ["a", "b", "c", "d"]
    mixed = 0
    for _ in range(300):
        c = _random_constraint(g, cols)
        n = int(g.integers(1, 60))
        pdf = pd.DataFrame(g.normal(0, 3, (n, len(cols))), columns=cols)
        pdf["g"] = g.choice(np.array(["u", "v", "w", "zzz", None], dtype=object), n)
        pdf["h"] = g.choice([0.0, 1.0, 2.0, 5.0, np.nan], n)
        np.testing.assert_allclose(
            violation_numpy(c, pdf), violation_reference(c, pdf), rtol=0, atol=1e-12
        )
        met = {sw.attr: sw.branch(pdf) >= 0 for sw in compile_constraint(c).switches}
        mixed += len(met) == 2 and bool((met["g"] != met["h"]).any())
    assert mixed > 10  # a tuple meets a branch on g and none on h, or the reverse


def test_atom_table_met_stacks_blocks_and_picks_targets():
    """``AtomTable.met`` stacks the atoms a branch combination meets in part
    order, adds the weight of each part it misses, and gives ExTuNe's
    intervention targets: the first matched branch's means, else the simple
    part's, else the first means the table records."""

    def simple(mean: float, k: int) -> SimpleConstraint:
        atoms = tuple(_atom(mean=mean + i) for i in range(k))
        return SimpleConstraint(conjuncts=atoms, col_means=(mean, -mean))

    glob = simple(1.0, 1)
    d1 = DisjunctiveConstraint("g", "string", {"u": simple(2.0, 2), "v": simple(3.0, 1)})
    d2 = DisjunctiveConstraint("h", "bigint", {"0": simple(4.0, 3), "1": simple(5.0, 2)})
    table = compile_constraint(CompoundConstraint(parts=(glob, d1, d2)))
    w = 1.0 / 3
    for j, branch in enumerate(d2.branches.values()):
        block, const = table.met((-1, j))
        atoms = [*glob.conjuncts, *branch.conjuncts]
        np.testing.assert_array_equal(block.weights, [a.weights for a in atoms])
        np.testing.assert_array_equal(block.lb, [a.lb for a in atoms])
        np.testing.assert_array_equal(block.coef, [a.gamma * w for a in atoms])
        assert const == w
        np.testing.assert_array_equal(block.col_means, branch.col_means)
        assert table.met((-1, j))[0] is block  # built once per table
    block, const = table.met((-1, -1))
    np.testing.assert_array_equal(block.lb, [a.lb for a in glob.conjuncts])
    assert const == 2 * w
    np.testing.assert_array_equal(block.col_means, glob.col_means)

    block, const = compile_constraint(CompoundConstraint(parts=(d1, d2))).met((-1, -1))
    assert block.weights.shape == (0, 2) and const == 1.0
    np.testing.assert_array_equal(block.col_means, d1.branches["u"].col_means)


def test_engines_agree_on_quoted_names_and_keys(spark):
    """A feature column whose name holds a space, a backtick and a double
    quote, and branch keys holding a quote and a backslash: the numpy kernel,
    on the pandas frame and inside ``score``, the Catalyst column and
    DuckDB's SQL text give the same scores."""
    name = 'we ird`c"'
    atom = BoundedProjection((name, "b"), (0.6, 0.8), 0.0, 1.0, -4.0, 4.0, 1.0)
    c = DisjunctiveConstraint(
        attr="k",
        attr_type="string",
        branches={
            "O'Hare": SimpleConstraint(conjuncts=(atom,)),
            "a\\b": SimpleConstraint(conjuncts=(_atom(mean=1.0, std=0.5),)),
        },
    )
    g = np.random.default_rng(5)
    pdf = pd.DataFrame({"i": np.arange(60), name: g.normal(0, 5, 60), "b": g.normal(0, 5, 60)})
    pdf["a"] = g.normal(0, 5, 60)
    pdf["k"] = np.array(["O'Hare", "a\\b", "a\\\\b", "ohare"])[np.arange(60) % 4]
    want = violation_numpy(c, pdf)
    assert (want[pdf["k"].isin(["a\\\\b", "ohare"])] == 1.0).all()
    assert want[pdf["k"] == "O'Hare"].min() == 0.0 and want[pdf["k"] == "a\\b"].min() < 0.5
    df = spark.createDataFrame(pdf)
    kernel = score(df, c).toPandas().sort_values("i")["violation"]
    np.testing.assert_allclose(kernel, want, rtol=1e-12)
    catalyst = catalyst_score(df, c).select("i", "violation")
    got = catalyst.toPandas().sort_values("i")["violation"]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert_equivalent(catalyst, f"SELECT i, {violation_sql(c)} AS violation FROM d", d=pdf)


def test_score_and_flag_keep_a_dotted_column_name(spark):
    """``score`` and ``flag_non_conforming`` read a column named ``x.1`` as
    that column, not as field ``1`` of a struct ``x``, and return it under
    its own name, next to the violation the numpy kernel gives."""
    pdf = linear_pdf(n=300, seed=18).rename(columns={"a": "x.1"})
    c = discover(spark.createDataFrame(pdf))
    shifted = pdf.assign(**{"x.1": pdf["x.1"] + np.arange(300) % 3})
    want = violation_numpy(c, shifted)
    assert 0 < (want > 0).sum() < len(want)
    df = spark.createDataFrame(shifted)
    scored = score(df, c).toPandas()
    assert list(scored.columns) == ["x.1", "b", "c", "violation"]
    np.testing.assert_array_equal(scored["x.1"], shifted["x.1"])
    np.testing.assert_allclose(scored["violation"], want, rtol=1e-12)
    flagged = flag_non_conforming(df, c).toPandas()
    assert list(flagged.columns) == ["x.1", "b", "c", "non_conforming"]
    np.testing.assert_array_equal(flagged["non_conforming"], want > 0)


def test_engines_agree_on_null_and_nan_features(spark):
    """An atom whose projection is null or NaN scores 1 in every engine, so
    a tuple with a missing feature counts as violating, and the average is
    finite."""
    train = spark.createDataFrame(linear_pdf(n=300))
    c = discover(train, cols=["a", "b", "c"])
    rows = [(10.0, -2.0, 8.0), (None, -2.0, 8.0), (10.0, float("nan"), 8.0), (9.0, -1.0, 8.0)]
    df = spark.createDataFrame(rows, "a double, b double, c double")
    want = np.array([0.0, 1.0, 1.0, 0.0])
    for scorer, average in ((score, average_violation), (catalyst_score, catalyst_average)):
        got = scorer(df, c).toPandas()["violation"].to_numpy()
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert average(df, c) == pytest.approx(0.5, abs=1e-12)
    # DuckDB sees the null as NULL and the NaN as NaN
    pdf = pd.DataFrame(
        {"a": pd.array([r[0] for r in rows], dtype="Float64"), "b": [r[1] for r in rows], "c": 8.0}
    )
    assert pdf["a"].isna().sum() == 1 and np.isnan(pdf["b"]).sum() == 1
    assert_equivalent(
        catalyst_score(df, c).select("a", "violation"),
        f"SELECT a, {violation_sql(c)} AS violation FROM d",
        d=pdf,
    )


# ---------------------------------------------------------------------------
# semantics properties
# ---------------------------------------------------------------------------


def test_zero_violation_within_bounds():
    c = SimpleConstraint(conjuncts=(_atom(mean=0, std=1),))
    pdf = pd.DataFrame({"a": [0.0, 3.9, -3.9], "b": [0.0, 0.0, 0.0]})
    np.testing.assert_array_equal(violation_numpy(c, pdf), [0.0, 0.0, 0.0])


def test_positive_violation_outside_bounds():
    c = SimpleConstraint(conjuncts=(_atom(mean=0, std=1),))
    pdf = pd.DataFrame({"a": [4.1, -10.0], "b": [0.0, 0.0]})
    v = violation_numpy(c, pdf)
    assert (v > 0).all()
    assert v[1] > v[0]


def test_violation_bounded_in_unit_interval():
    c = _random_simple(30)
    pdf = _pdf(31, n=500) * 100  # extreme tuples
    v = violation_numpy(c, pdf)
    assert (v >= 0).all() and (v <= 1).all()  # float64 saturates eta at 1.0


def test_eta_form():
    """One atom, deviation d beyond ub: score = 1 - exp(-d/sigma)."""
    c = SimpleConstraint(conjuncts=(_atom(mean=0, std=2.0),))
    pdf = pd.DataFrame({"a": [8.0 + 3.0], "b": [0.0]})  # ub = 8, deviation 3
    assert violation_numpy(c, pdf)[0] == pytest.approx(1 - np.exp(-3.0 / 2.0))


def test_lemma1_monotone_in_normalized_deviation():
    """Lemma 1: larger |F - mu|/sigma  ==>  >= violation score."""
    g = np.random.default_rng(40)
    for _ in range(50):
        std1, std2 = abs(g.normal()) + 0.1, abs(g.normal()) + 0.1
        c1 = SimpleConstraint(conjuncts=(_atom(mean=0, std=std1),))
        c2 = SimpleConstraint(conjuncts=(_atom(mean=0, std=std2),))
        z1, z2 = abs(g.normal()) * 8, abs(g.normal()) * 8
        v1 = violation_numpy(c1, pd.DataFrame({"a": [z1 * std1], "b": [0.0]}))[0]
        v2 = violation_numpy(c2, pd.DataFrame({"a": [z2 * std2], "b": [0.0]}))[0]
        if z1 >= z2:
            assert v1 >= v2 - 1e-12
        else:
            assert v2 >= v1 - 1e-12


def test_gamma_weighting():
    a1 = _atom(mean=0, std=1, gamma=0.9)
    a2 = _atom(mean=0, std=1, gamma=0.1, weights=(0.0, 1.0))
    c = SimpleConstraint(conjuncts=(a1, a2))
    pdf = pd.DataFrame({"a": [10.0], "b": [0.0]})  # violates only a1
    v = violation_numpy(c, pdf)[0]
    assert v == pytest.approx(0.9 * (1 - np.exp(-6.0)))


def test_disjunctive_unseen_value_scores_one():
    empty = SimpleConstraint(conjuncts=())
    c = DisjunctiveConstraint(attr="g", attr_type="string", branches={"x": empty})
    pdf = pd.DataFrame({"a": [0.0, 0.0], "b": [0.0, 0.0], "g": ["x", "zzz"]})
    np.testing.assert_array_equal(violation_numpy(c, pdf), [0.0, 1.0])


def test_empty_branches_disjunctive_scores_one(spark):
    c = DisjunctiveConstraint(attr="g", attr_type="string", branches={})
    pdf = pd.DataFrame({"g": ["x"], "a": [0.0], "b": [0.0]})
    assert violation_numpy(c, pdf)[0] == 1.0
    assert score(spark.createDataFrame(pdf), c).first()["violation"] == 1.0


def test_compound_is_mean_of_parts():
    s_ok = SimpleConstraint(conjuncts=(_atom(mean=0, std=1),))
    d_bad = DisjunctiveConstraint(attr="g", attr_type="string", branches={})  # always 1
    c = CompoundConstraint(parts=(s_ok, d_bad))
    pdf = pd.DataFrame({"a": [0.0], "b": [0.0], "g": ["x"]})
    assert violation_numpy(c, pdf)[0] == pytest.approx(0.5)


def test_empty_constraints_score_zero():
    pdf = pd.DataFrame({"a": [1.0], "b": [1.0]})
    assert violation_numpy(SimpleConstraint(conjuncts=()), pdf)[0] == 0.0
    assert violation_numpy(CompoundConstraint(parts=()), pdf)[0] == 0.0


def test_average_violation(spark):
    c = SimpleConstraint(conjuncts=(_atom(mean=0, std=1),))
    pdf = pd.DataFrame({"a": [0.0, 0.0, 100.0], "b": [0.0] * 3})
    got = average_violation(spark.createDataFrame(pdf), c)
    ref = violation_numpy(c, pdf).mean()
    assert got == pytest.approx(ref, rel=1e-9)


def test_strict_equality_atom_fires_on_any_deviation():
    eq = BoundedProjection(
        cols=("a", "b"), weights=(1.0, -1.0), mean=0.0, std=0.0, lb=0.0, ub=0.0, gamma=1.0
    )
    c = SimpleConstraint(conjuncts=(eq,))
    pdf = pd.DataFrame({"a": [1.0, 1.0], "b": [1.0, 1.0001]})
    v = violation_numpy(c, pdf)
    assert v[0] == 0.0
    assert v[1] > 0.99  # alpha = 1e9 makes even 1e-4 a near-total violation


def test_engines_agree_on_boolean_switch(spark):
    """Branch keys of a boolean switch are "true"/"false", and every engine
    matches them by value: the pandas kernel, the Catalyst expression and
    the SQL text pick the same branch, and the training data scores about 0
    against its own constraint."""
    pdf = piecewise_pdf(n_per=100, seed=30)
    pdf["flag"] = pdf.pop("grp") == "g0"
    df = spark.createDataFrame(pdf)
    c = discover(df)
    assert c.parts[1].attr == "flag"
    assert set(c.parts[1].branches) == {"true", "false"}
    pandas_v = score(df, c).toPandas().sort_values(["x", "y"])
    catalyst = catalyst_score(df, c)
    catalyst_v = catalyst.toPandas().sort_values(["x", "y"])
    np.testing.assert_allclose(pandas_v["violation"], catalyst_v["violation"], rtol=1e-9)
    assert_equivalent(
        catalyst.select("x", "y", "flag", "violation"),
        f"SELECT x, y, flag, {violation_sql(c)} AS violation FROM d",
        d=pdf,
    )
    assert catalyst_average(df, c) < 0.02
    assert average_violation(df, c) < 0.02


def test_engines_agree_on_integer_switch_with_nulls(spark):
    """A bigint switch holding nulls reaches pandas as float64.  Its branch
    keys must still be "0", "1", ..., and the pandas kernel and the Catalyst
    expression pick the same branch; the null rows belong to no branch and
    score 1 on the disjunctive part in both."""
    pdf = piecewise_pdf(n_per=134, seed=31).head(400)
    pdf["k"] = pdf.pop("grp").str[1:].astype(int).astype(object)
    pdf.loc[::7, "k"] = None
    df = spark.createDataFrame(pdf, "x double, y double, k bigint")
    c = discover(df, cols=["x", "y"], partition_attrs=["k"])
    assert set(c.parts[1].branches) == {"0", "1", "2"}
    pandas_v = score(df, c).toPandas().sort_values(["x", "y"])
    catalyst_v = catalyst_score(df, c).toPandas().sort_values(["x", "y"])
    np.testing.assert_allclose(pandas_v["violation"], catalyst_v["violation"], rtol=1e-9)
    nulls = pdf["k"].isna().mean()
    for average in (average_violation, catalyst_average):
        assert average(df, c) == pytest.approx(nulls / 2, abs=0.01)


def _assert_engines_agree(df, pdf, c, missing: np.ndarray) -> None:
    """The pandas kernel, the Catalyst column and DuckDB's SQL text give the
    same score on every row of ``df`` (``pdf`` as pandas), and the rows in
    ``missing`` (null, NaN) score 1 on the disjunctive part, half the total."""
    pandas_v = score(df, c).toPandas().sort_values(["x", "y"])
    catalyst = catalyst_score(df, c)
    catalyst_v = catalyst.toPandas().sort_values(["x", "y"])
    np.testing.assert_allclose(pandas_v["violation"], catalyst_v["violation"], rtol=1e-9)
    for average in (average_violation, catalyst_average):
        assert average(df, c) == pytest.approx(missing.mean() / 2, abs=0.01)
    assert_equivalent(
        catalyst.select("x", "y", "violation"),
        f"SELECT x, y, {violation_sql(c)} AS violation FROM d",
        d=pdf,
    )


def test_engines_agree_on_float_switch(spark):
    """Double and float switches match by value in every engine, also for
    values whose Java and Python printings differ (magnitudes >= 1e16,
    5e-324, float32 >= 7.5e7); 0.0 and -0.0 in different partitions form one
    branch "0.0"; null and NaN rows belong to no branch.  DuckDB checks
    every row."""
    pdf = piecewise_pdf(n_per=134, seed=32).head(400)
    grp = pdf.pop("grp").str[1:].astype(int).to_numpy()
    odd = np.arange(len(grp)) % 2 == 1
    late = np.arange(len(grp)) >= len(grp) // 2
    k = np.select(
        [grp == 0, (grp == 1) & odd, grp == 1, odd],
        [np.where(late, -0.0, 0.0), 1e16, 5e-324, 1.2345678901234566e17],
        123456789.0,
    ).astype(object)
    k[::7] = None
    k[3::11] = float("nan")
    pdf["k"] = k
    # 0.0 in one partition, -0.0 in the other
    first, second = (
        spark.createDataFrame(list(half.itertuples(index=False)), "x double, y double, k double")
        for half in (pdf[~late], pdf[late])
    )
    df = first.union(second)
    c = discover(df, cols=["x", "y"], partition_attrs=["k"])
    assert c.parts[1].attr_type == "double"
    assert set(c.parts[1].branches) == {
        "0.0", "1e+16", "5e-324", "1.2345678901234566e+17", "123456789.0"
    }
    pdf["k"] = pdf["k"].astype(float)
    _assert_engines_agree(df, pdf, c, pdf["k"].isna().to_numpy())

    floats = np.array([7.5e7, 123456790.0, 0.1], dtype=np.float32)[grp]
    floats[::7] = np.nan
    pdf["k"] = floats
    rows = [(x, y, None if np.isnan(v) else float(v)) for x, y, v in pdf.itertuples(index=False)]
    df = spark.createDataFrame(rows, "x double, y double, k float")
    c = discover(df, cols=["x", "y"], partition_attrs=["k"])
    assert c.parts[1].attr_type == "float"
    assert set(c.parts[1].branches) == {"75000000.0", "123456790.0", "0.1"}
    _assert_engines_agree(df, pdf, c, pdf["k"].isna().to_numpy())


def test_constraint_learned_on_bigint_scores_a_double_switch(spark):
    """A constraint learned on a bigint switch matches the values 0.0 and
    1.0 of a double column to its branches "0" and "1"; 1.5, null and NaN
    match none and score 1.  The same in the numpy scorer, the Catalyst
    column, DuckDB and ExTuNe, and after a round trip through a dict."""
    train = piecewise_pdf(n_per=100, seed=33)
    train = train[train["grp"] != "g2"].reset_index(drop=True)
    train["k"] = train.pop("grp").str[1:].astype(int)
    c = discover(
        spark.createDataFrame(train, "x double, y double, k bigint"),
        cols=["x", "y"],
        partition_attrs=["k"],
        include_global=False,
    )
    assert c.parts[0].attr_type == "bigint" and set(c.parts[0].branches) == {"0", "1"}
    as_double = spark.createDataFrame(train.astype({"k": float}), "x double, y double, k double")
    for average in (average_violation, catalyst_average):
        assert average(as_double, c) < 0.02

    conforming = train[violation_numpy(c, train) == 0.0]
    rows = pd.concat(
        [conforming[conforming["k"] == 0].head(1), conforming[conforming["k"] == 1].head(3)]
    )[["x", "y"]].reset_index(drop=True)
    rows["k"] = [0.0, 1.0, 1.5, np.nan]
    rows.loc[4] = [rows.loc[3, "x"] + 1.0, rows.loc[3, "y"], np.nan]
    tuples = [(x, y, None if i == 4 else k) for i, (x, y, k) in enumerate(rows.itertuples(False))]
    df = spark.createDataFrame(tuples, "x double, y double, k double")
    want = [0.0, 0.0, 1.0, 1.0, 1.0]
    np.testing.assert_array_equal(violation_numpy(c, rows), want)
    again = constraint_from_dict(constraint_to_dict(c))
    assert again == c and again.parts[0].attr_type == "bigint"
    np.testing.assert_array_equal(violation_numpy(again, rows), want)
    got = catalyst_score(df, c).toPandas().sort_values("x")["violation"]
    np.testing.assert_allclose(got, np.array(want)[np.argsort(rows["x"].to_numpy())])
    assert_equivalent(
        catalyst_score(df, c).select("x", "y", "violation"),
        f"SELECT x, y, {violation_sql(c)} AS violation FROM d",
        d=rows,
    )
    r = responsibilities(df.coalesce(1), c, ["x", "y"], max_steps=4)
    np.testing.assert_allclose(r.to_numpy(), [3 / 5 / 5] * 2)  # 3 rows capped at 1/5


TestOnExecutors = on_executors(
    test_average_violation,
    test_engines_agree_on_null_and_nan_features,
    test_engines_agree_on_boolean_switch,
    test_engines_agree_on_integer_switch_with_nulls,
    test_engines_agree_on_float_switch,
    test_constraint_learned_on_bigint_scores_a_double_switch,
)
