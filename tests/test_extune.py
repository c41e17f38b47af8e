"""Tests for ExTuNe responsibility attribution (repro.explain.extune)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.discovery import discover, discover_simple
from repro.core.scoring import Block, compile_constraint
from repro.datasets.led import IRRELEVANT_COLS, LED_COLS, led_window_pdf
from repro.explain import extune
from repro.explain.extune import responsibilities
from tests.helpers import (
    greedy_group_reference,
    grouped_constraint,
    linear_pdf,
    piecewise_pdf,
)


def test_conforming_tuples_get_zero_responsibility(spark):
    pdf = linear_pdf(n=600, seed=0)
    df = spark.createDataFrame(pdf)
    c = discover_simple(df)
    r = responsibilities(df.limit(100), c, ["a", "b", "c"])
    assert list(r.index) == ["a", "b", "c"]
    assert (r < 0.05).all()  # training data conforms -> ~no responsibility


def test_single_corrupted_attribute_blamed(spark):
    """Tuples at typical a, b but corrupted c: fixing c alone restores
    conformance (K=0, responsibility 1), while fixing a or b first still
    needs c fixed afterwards (K>=1) — so c gets the highest responsibility."""
    train = linear_pdf(n=800, noise=0.05, seed=1)
    c = discover_simple(spark.createDataFrame(train))
    mu = train.mean()
    test = pd.DataFrame(
        {"a": [mu["a"]] * 50, "b": [mu["b"]] * 50, "c": [mu["c"] + 30.0] * 50}
    )
    r = responsibilities(spark.createDataFrame(test), c, ["a", "b", "c"])
    assert r.idxmax() == "c"
    assert r["c"] == pytest.approx(1.0, abs=1e-6)
    assert r["a"] <= 0.5 + 1e-6 and r["b"] <= 0.5 + 1e-6


def test_coupled_relation_spreads_responsibility(spark):
    """When a, b, c all sit away from their means inside the tight relation
    c = a + b, no single fix suffices: the method necessarily spreads the
    blame (~1/3 each) — the 'holistic' Figure 10(c) behavior."""
    train = linear_pdf(n=800, noise=0.05, seed=1)
    c = discover_simple(spark.createDataFrame(train))
    test = linear_pdf(n=50, noise=0.05, seed=2)
    test["c"] = test["c"] + 30.0
    r = responsibilities(spark.createDataFrame(test), c, ["a", "b", "c"])
    assert (r > 0.2).all()
    assert r.max() - r.min() < 0.25


def test_responsibility_range(spark):
    train = linear_pdf(n=500, seed=3)
    c = discover_simple(spark.createDataFrame(train))
    test = linear_pdf(n=50, seed=4) * 3.0
    r = responsibilities(spark.createDataFrame(test), c, ["a", "b", "c"])
    assert ((r >= 0) & (r <= 1)).all()


def test_fixing_one_attr_suffices_gives_full_responsibility(spark):
    """If the violation is caused by one attribute alone, K=0 after fixing it
    and its per-tuple responsibility is 1."""
    train = linear_pdf(n=800, noise=0.05, seed=5)
    c = discover_simple(spark.createDataFrame(train))
    mu = train.mean()
    one = pd.DataFrame({"a": [mu["a"]], "b": [mu["b"]], "c": [mu["c"] + 50.0]})
    r = responsibilities(spark.createDataFrame(one), c, ["a", "b", "c"])
    assert r["c"] == pytest.approx(1.0)


def test_compound_constraint_uses_branch_means(spark):
    """Piecewise data: an off-trend tuple in partition g0 is fixed by moving
    y to g0's conditional trend; responsibilities must be computed against
    the branch (not global) means and blame y."""
    pdf = piecewise_pdf(n_per=300, noise=0.05, seed=7)
    df = spark.createDataFrame(pdf)
    c = discover(df)
    bad = pd.DataFrame({"grp": ["g0"] * 20, "x": [5.0] * 20, "y": [2.0] * 20})
    r = responsibilities(spark.createDataFrame(bad), c, ["x", "y"])
    assert r.sum() > 0.2
    assert set(r.index) == {"x", "y"}


def test_unseen_branch_value_capped_not_crashing(spark):
    pdf = piecewise_pdf(n_per=200, seed=8)
    df = spark.createDataFrame(pdf)
    c = discover(df, include_global=False)
    alien = pd.DataFrame({"grp": ["never-seen"] * 5, "x": [1.0] * 5, "y": [1.0] * 5})
    r = responsibilities(spark.createDataFrame(alien), c, ["x", "y"], max_steps=4)
    # no numerical intervention can fix an unseen switch value: capped resp
    assert np.allclose(r.to_numpy(), 1.0 / 5.0)


def test_boolean_switch_branches_found(spark):
    """ExTuNe matches tuples to branches by the switch value: training
    tuples of a boolean switch find their branch and get ~no responsibility
    (an unmatched key would give every attribute a capped 1/(max_steps+1))."""
    pdf = piecewise_pdf(n_per=200, seed=12)
    pdf["flag"] = pdf.pop("grp") == "g0"
    df = spark.createDataFrame(pdf)
    c = discover(df, include_global=False)
    assert set(c.parts[0].branches) == {"true", "false"}
    r = responsibilities(df.limit(100), c, ["x", "y"])
    assert (r < 0.05).all()


def test_led_malfunction_blamed(spark):
    """Figure 10(d) mechanics: constraints from window 0 (partitioned on
    digit); in a window where LEDs 4 and 5 malfunction, those two attributes
    take the highest responsibility."""
    train = led_window_pdf(0, n=3000, seed=0)
    c = discover(
        spark.createDataFrame(train),
        cols=LED_COLS,
        partition_attrs=["digit"],
        include_global=False,
    )
    broken = led_window_pdf(5, n=300, seed=0)  # phase {4, 5}
    r = responsibilities(spark.createDataFrame(broken), c, LED_COLS)
    top2 = set(r.sort_values(ascending=False).index[:2])
    assert top2 == {"led_4", "led_5"}


def test_led_clean_window_low_responsibility(spark):
    train = led_window_pdf(0, n=3000, seed=0)
    c = discover(
        spark.createDataFrame(train),
        cols=LED_COLS,
        partition_attrs=["digit"],
        include_global=False,
    )
    clean = led_window_pdf(1, n=300, seed=0)  # same phase as training
    r = responsibilities(spark.createDataFrame(clean), c, LED_COLS)
    assert r.max() < 0.35


def test_distributed_matches_single_partition(spark):
    train = linear_pdf(n=500, noise=0.05, seed=9)
    c = discover_simple(spark.createDataFrame(train))
    test = linear_pdf(n=80, noise=0.05, seed=10)
    test["c"] = test["c"] + 25.0
    sdf = spark.createDataFrame(test)
    r1 = responsibilities(sdf.repartition(8), c, ["a", "b", "c"])
    r2 = responsibilities(sdf.coalesce(1), c, ["a", "b", "c"])
    pd.testing.assert_series_equal(r1, r2)
    # the LED digit constraint: several branch groups per batch, most of
    # whose searches end capped
    cols = LED_COLS + IRRELEVANT_COLS
    c = grouped_constraint(led_window_pdf(0, n=3000, seed=0), "digit", cols)
    sdf = spark.createDataFrame(led_window_pdf(5, n=200, seed=0))
    r1 = responsibilities(sdf.repartition(8), c, cols)
    r2 = responsibilities(sdf.coalesce(1), c, cols)
    pd.testing.assert_series_equal(r1, r2)


def _atoms(weights, lb, ub, fix, alpha=None, coef=None) -> Block:
    weights = np.asarray(weights, dtype=np.float64)
    k = len(weights)
    return Block(
        weights=weights,
        lb=np.asarray(lb, dtype=np.float64),
        ub=np.asarray(ub, dtype=np.float64),
        alpha=np.ones(k) if alpha is None else alpha,
        coef=np.ones(k) if coef is None else coef,
        col_means=np.asarray(fix, dtype=np.float64),
    )


def test_stuck_search_capped_whatever_its_batch_mates():
    """A search with no attribute left to fix that still violates never
    reached conformance: it is capped even when other searches of the batch
    can still move.  Fixing x0 of A = (5, 3) leaves x0 + x1 = 3.5 outside
    [0, 1], and x1 already sits at its target."""
    a = _atoms([[1.0, 1.0]], lb=[0.0], ub=[1.0], fix=[0.5, 3.0])
    alone = extune._greedy_group(a, 0.0, np.array([[5.0, 3.0]]), extune._EPS, 4)
    paired = extune._greedy_group(a, 0.0, np.array([[5.0, 3.0], [5.0, -9.0]]), extune._EPS, 4)
    np.testing.assert_array_equal(alone[0], [0.2, 0.2])
    np.testing.assert_array_equal(paired[0], alone[0])


def _random_case(g: np.random.Generator) -> tuple[Block, float, np.ndarray, float, int]:
    m, k, b = (int(v) for v in g.integers(1, 9, size=3))
    weights = g.normal(size=(k, m)) * (g.random((k, m)) < 0.7)
    mean = g.normal(size=k)
    std = np.abs(g.normal(size=k)) + 0.05
    width = g.uniform(1.0, 4.0)
    a = _atoms(
        weights,
        lb=mean - width * std,
        ub=mean + width * std,
        fix=g.normal(size=m),
        alpha=1.0 / std,
        coef=g.random(k) / k,
    )
    const = float(g.choice([0.0, 0.0, 0.1]))
    x = a.col_means + g.normal(size=(b, m)) * g.uniform(0.5, 3.0)
    x = np.where(g.random((b, m)) < 0.25, a.col_means, x)  # some already at target
    return a, const, x, float(g.choice([1e-9, 1e-3, 0.05])), int(g.integers(1, 6))


@pytest.mark.parametrize("budget", [extune._MAX_CANDIDATES, 7])
def test_greedy_search_matches_reference(monkeypatch, budget):
    """The array program returns exactly what the one-search-at-a-time loop
    returns, also when the searches of a group are split into chunks."""
    monkeypatch.setattr(extune, "_MAX_CANDIDATES", budget)
    g = np.random.default_rng(2024)
    partial = 0
    for _ in range(400):
        a, const, x, eps, max_steps = _random_case(g)
        want = greedy_group_reference(a, const, x, eps, max_steps)
        np.testing.assert_array_equal(extune._greedy_group(a, const, x, eps, max_steps), want)
        partial += bool(((want > 1.0 / (max_steps + 1)) & (want < 1.0)).any())
    assert partial > 40  # many searches resolve after some, not all, steps


def test_led_batch_matches_reference(monkeypatch):
    """A whole batch (ten digit branches, m = 24) equals the reference."""
    cols = LED_COLS + IRRELEVANT_COLS
    c = grouped_constraint(led_window_pdf(0, n=3000, seed=0), "digit", cols)
    batch = led_window_pdf(7, n=120, seed=0)
    table = compile_constraint(c, cols)

    def run() -> np.ndarray:
        return extune._batch_responsibilities(table, batch, extune._EPS, 8)

    got = run()
    monkeypatch.setattr(extune, "_greedy_group", greedy_group_reference)
    np.testing.assert_array_equal(got, run())
    assert got.any()


def test_integer_switch_with_nulls_finds_its_branches(spark):
    """A bigint switch holding nulls reaches pandas as float64; its tuples
    must still find the branches "0", "1", ... of a constraint learned where
    the column had no nulls."""
    pdf = piecewise_pdf(n_per=100, seed=13)
    pdf["k"] = pdf.pop("grp").str[1:].astype(int).astype(object)
    pdf.loc[::7, "k"] = None
    df = spark.createDataFrame(pdf, "x double, y double, k bigint")
    c = discover(
        df.where("k IS NOT NULL"), cols=["x", "y"], partition_attrs=["k"], include_global=False
    )
    assert set(c.parts[0].branches) == {"0", "1", "2"}
    r = responsibilities(df.coalesce(1), c, ["x", "y"])
    # only the null-switch rows (1 in 7) violate, each capped at 1/9
    assert (r < 0.03).all()


def test_nan_feature_never_resolves(spark):
    """A tuple with a NaN or null feature violates every atom (eta = 1) and
    no intervention can change that, so each of its searches is capped."""
    train = linear_pdf(n=600, noise=0.05, seed=11)
    c = discover_simple(spark.createDataFrame(train))
    mean_a, mean_b, mean_c = (float(v) for v in train.mean())
    rows = [(float("nan"), mean_b, mean_c), (mean_a, None, mean_c)]
    df = spark.createDataFrame(rows, "a double, b double, c double")
    r = responsibilities(df, c, ["a", "b", "c"], max_steps=4)
    np.testing.assert_array_equal(r.to_numpy(), [0.2, 0.2, 0.2])
