"""Hypothesis property tests for the quantitative semantics and Gram math.

All numpy-level (no Spark): they pin down the algebraic properties the
distributed pipeline relies on.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import BoundedProjection, SimpleConstraint, normalize_gammas
from repro.core.projections import derive_projections, importance_raw
from repro.core.scoring import violation_numpy
from tests.helpers import frame_moments

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def _constraint(mean: float, std: float) -> SimpleConstraint:
    return SimpleConstraint(
        conjuncts=(
            BoundedProjection(
                cols=("x",),
                weights=(1.0,),
                mean=mean,
                std=std,
                lb=mean - 4 * std,
                ub=mean + 4 * std,
                gamma=1.0,
            ),
        )
    )


@given(mean=finite, std=pos, x=finite)
@settings(max_examples=200, deadline=None)
def test_violation_always_in_unit_interval(mean, std, x):
    # eta maps to [0, 1) mathematically, but 1 - exp(-z) saturates to exactly
    # 1.0 in float64 for z >~ 37, so the closed interval is the true invariant
    v = violation_numpy(_constraint(mean, std), pd.DataFrame({"x": [x]}))[0]
    assert 0.0 <= v <= 1.0


@given(mean=finite, std=pos, z=st.floats(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_within_bounds_is_zero(mean, std, z):
    v = violation_numpy(_constraint(mean, std), pd.DataFrame({"x": [mean + z * std]}))[0]
    assert v == 0.0


@given(mean=finite, std=pos, z1=st.floats(4.001, 50), z2=st.floats(4.001, 50))
@settings(max_examples=200, deadline=None)
def test_lemma1_monotone(mean, std, z1, z2):
    c = _constraint(mean, std)
    v1 = violation_numpy(c, pd.DataFrame({"x": [mean + z1 * std]}))[0]
    v2 = violation_numpy(c, pd.DataFrame({"x": [mean + z2 * std]}))[0]
    assert (v1 >= v2) == (z1 >= z2) or abs(v1 - v2) < 1e-12


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_normalize_gammas_properties(raw):
    g = normalize_gammas(list(raw))
    assert abs(sum(g) - 1.0) < 1e-9
    assert all(x >= 0 for x in g)
    # order preserved (up to float rounding ties in the normalization)
    assert g[int(np.argmax(raw))] >= max(g) - 1e-9


@given(s1=pos, s2=pos)
@settings(max_examples=100, deadline=None)
def test_importance_monotone_decreasing(s1, s2):
    if s1 < s2:
        # non-strict: float rounding can make nearly-equal sigmas tie
        assert importance_raw(s1) >= importance_raw(s2)
    if s1 * 1.01 < s2:
        assert importance_raw(s1) > importance_raw(s2)


@given(
    seed=st.integers(0, 1000),
    n=st.integers(5, 60),
    scale=st.floats(min_value=0.1, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_gram_moments_match_direct(seed, n, scale):
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(g.normal(0, scale, (n, 3)), columns=["a", "b", "c"])
    gram = frame_moments(pdf, ["a", "b", "c"])
    w = g.normal(size=3)
    mean, std = gram.projection_moments(w)
    f = pdf.to_numpy() @ w
    assert abs(mean - f.mean()) < 1e-6 * max(1, abs(f.mean()))
    assert abs(std - f.std()) < 1e-5 * max(1.0, f.std())


@given(
    seed=st.integers(0, 1000),
    n=st.integers(1, 30),
    rank=st.integers(0, 2),
    offset=st.sampled_from([0.0, 1e3, 1e7]),
)
@settings(max_examples=200, deadline=None)
def test_sigma_finite_on_rank_deficient_data(seed, n, rank, offset):
    """Along a null direction of a rank-deficient scatter, rounding may take
    w^T S w just below 0: sigma must read 0 there, not NaN."""
    g = np.random.default_rng(seed)
    x = g.normal(size=(n, rank)) @ g.normal(size=(rank, 3)) + offset
    gram = frame_moments(pd.DataFrame(x, columns=["a", "b", "c"]), ["a", "b", "c"])
    for p in derive_projections(gram):
        assert 0.0 <= p.std < np.inf


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_min_variance_projection_optimal(seed):
    """Theorem 4(1) as a property: no random unit projection beats the
    minimum-sigma projection returned by Algorithm 1."""
    g = np.random.default_rng(seed)
    x = g.normal(size=(100, 3)) @ g.normal(size=(3, 3)) + g.normal(0, 0.1, (100, 3))
    pdf = pd.DataFrame(x, columns=["a", "b", "c"])
    projections = derive_projections(frame_moments(pdf, ["a", "b", "c"]))
    sigma_star = min(p.std for p in projections)
    for _ in range(20):
        w = g.normal(size=3)
        w /= np.linalg.norm(w)
        assert sigma_star <= (x @ w).std() + 1e-8
