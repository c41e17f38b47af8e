"""Shared helpers for the test suite: small deterministic datasets, and the
reference implementations that the scorer and ExTuNe are checked against."""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as Fn

from repro.core.constraints import (
    BoundedProjection,
    CompoundConstraint,
    Constraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    branch_value,
)
from repro.core.discovery import disjunctive_from_grams, simple_from_gram
from repro.core.gram import GramResult, _partial_grams_fn, _square, _unpack
from repro.core.scoring import violation_col


def linear_pdf(
    n: int = 500,
    noise: float = 0.05,
    seed: int = 0,
    slope: tuple[float, float] = (1.0, 1.0),
) -> pd.DataFrame:
    """Columns a, b independent; c = slope_a*a + slope_b*b + N(0, noise).

    Plants the paper's Example-1-style arithmetic invariant
    ``c - slope_a*a - slope_b*b ~ 0`` with standard deviation ``noise``.
    """
    g = np.random.default_rng(seed)
    a = g.normal(10.0, 3.0, n)
    b = g.normal(-2.0, 5.0, n)
    c = slope[0] * a + slope[1] * b + g.normal(0.0, noise, n)
    return pd.DataFrame({"a": a, "b": b, "c": c})


def piecewise_pdf(n_per: int = 300, noise: float = 0.05, seed: int = 1) -> pd.DataFrame:
    """The Figure-2 scenario: three categories, each its own linear trend.

    Globally there is no low-variance linear projection; per-category there
    is (y = slope_k * x + intercept_k + small noise).
    """
    g = np.random.default_rng(seed)
    frames = []
    for k, (slope, intercept) in enumerate([(2.0, 0.0), (-1.0, 10.0), (0.2, -5.0)]):
        x = g.uniform(0, 10, n_per)
        y = slope * x + intercept + g.normal(0, noise, n_per)
        frames.append(pd.DataFrame({"grp": f"g{k}", "x": x, "y": y}))
    return pd.concat(frames, ignore_index=True)


def random_unit_vectors(m: int, count: int, seed: int = 7) -> np.ndarray:
    g = np.random.default_rng(seed)
    v = g.normal(size=(count, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def numpy_aug_gram(pdf: pd.DataFrame, cols: list[str]) -> tuple[int, np.ndarray]:
    """Reference augmented Gram matrix computed directly with numpy."""
    x = pdf[cols].to_numpy(dtype=np.float64)
    xa = np.hstack([np.ones((len(x), 1)), x])
    return len(x), xa.T @ xa


def augmented(r: GramResult) -> np.ndarray:
    """Algorithm 1's augmented Gram ``[1|X]^T [1|X]`` rebuilt from a moments
    record, as ``T^T [[n, 0], [0, S]] T`` with ``T = [[1, mean^T], [0, I]]``."""
    return _square(r.n, r.n * r.mean, r.scatter + r.n * np.outer(r.mean, r.mean))


def frame_moments(pdf: pd.DataFrame, cols: list[str]) -> GramResult:
    """Reference moments of ``pdf[cols]`` (count, mean, centered scatter),
    computed directly with numpy."""
    x = pdf[cols].to_numpy(dtype=np.float64)
    mean = x.mean(axis=0)
    xc = x - mean
    return GramResult(tuple(cols), len(x), mean, xc.T @ xc)


def kernel_moments(pdf: pd.DataFrame, cols: list[str], batch: int = 10_000) -> GramResult:
    """``augmented_gram`` without Spark: the Gram pass's partition kernel run
    in-process over ``batch``-row slices of ``pdf``, as one partition."""
    fn = _partial_grams_fn(list(cols), {}, {}, None)
    (row,) = next(fn(pdf.iloc[s : s + batch] for s in range(0, len(pdf), batch))).itertuples()
    return GramResult(tuple(cols), *_unpack(row.n, row.g, len(cols)))


def grouped_constraint(
    pdf: pd.DataFrame, attr: str, cols: list[str], include_global: bool = False
) -> CompoundConstraint:
    """``discover(df, cols, partition_attrs=[attr], include_global=...)`` for
    a string, integer or double switch ``attr``, computed with numpy instead
    of Spark."""
    grams = {str(k): frame_moments(part, cols) for k, part in pdf.groupby(attr)}
    attr_type = {"i": "bigint", "f": "double"}.get(pdf[attr].dtype.kind, "string")
    parts = (disjunctive_from_grams(attr, attr_type, grams),)
    if include_global:
        parts = (simple_from_gram(frame_moments(pdf, cols)), *parts)
    return CompoundConstraint(parts=parts)


def catalyst_score(df: DataFrame, c: Constraint) -> DataFrame:
    """``scoring.score`` evaluated by the Catalyst twin ``violation_col``
    instead of the numpy kernel: the Spark side of the engine checks."""
    return df.withColumn("violation", violation_col(c))


def catalyst_average(df: DataFrame, c: Constraint) -> float:
    """``scoring.average_violation`` evaluated by the Catalyst twin."""
    v = df.select(Fn.avg(violation_col(c))).first()[0]
    return float(v) if v is not None else 0.0


def _atom_reference(b: BoundedProjection, pdf: pd.DataFrame) -> np.ndarray:
    x = pdf[list(b.cols)].to_numpy(dtype=np.float64)
    f = x @ np.asarray(b.weights, dtype=np.float64)
    dev = np.maximum(0.0, np.maximum(f - b.ub, b.lb - f))
    return 1.0 - np.exp(-b.alpha * dev)


def violation_reference(c: Constraint, pdf: pd.DataFrame) -> np.ndarray:
    """Reference for ``scoring.violation_numpy``: a walk of the constraint
    tree, one matrix-vector product per atom, for tuples without null or NaN
    features.  A tuple takes the branch whose value its switch equals."""
    n = len(pdf)
    if isinstance(c, SimpleConstraint):
        out = np.zeros(n, dtype=np.float64)
        for b in c.conjuncts:
            out += b.gamma * _atom_reference(b, pdf)
        return out
    if isinstance(c, DisjunctiveConstraint):
        out = np.ones(n, dtype=np.float64)
        for key, branch in c.branches.items():
            mask = (pdf[c.attr] == branch_value(key, c.attr_type)).to_numpy()
            if mask.any():
                out[mask] = violation_reference(branch, pdf.loc[mask])
        return out
    if isinstance(c, CompoundConstraint):
        if not c.parts:
            return np.zeros(n, dtype=np.float64)
        out = np.zeros(n, dtype=np.float64)
        for p in c.parts:
            out += violation_reference(p, pdf)
        return out / float(len(c.parts))
    raise TypeError(f"not a constraint: {type(c)!r}")


def _violation_ref(a, const: float, p: np.ndarray) -> np.ndarray:
    dev = np.maximum(0.0, np.maximum(p - a.ub, a.lb - p))
    dev[np.isnan(dev)] = np.inf  # a NaN projection scores eta = 1
    return (a.coef * (1.0 - np.exp(-a.alpha * dev))).sum(axis=1) + const


def greedy_group_reference(
    a, const: float, x: np.ndarray, eps: float, max_steps: int
) -> np.ndarray:
    """Reference for ``extune._greedy_group``: one greedy search at a time.

    For every first-fixed attribute ``i``, all tuples of ``x`` advance in
    lock-step, one candidate attribute ``j`` per numpy call.  A search with no
    attribute left to fix that still violates is capped at ``max_steps``
    whatever its batch-mates do, so a tuple's responsibilities depend on
    that tuple alone.
    """
    b_n, m = x.shape
    resp = np.zeros((b_n, m))
    p0 = x @ a.weights.T  # (B, K)
    active = _violation_ref(a, const, p0) > eps
    if not active.any():
        return resp
    delta0 = a.col_means[None, :] - x  # (B, m): effect of fixing each attr
    for i in range(m):
        # step 0: fix attribute i
        p = p0 + delta0[:, i][:, None] * a.weights[:, i][None, :]
        delta = delta0.copy()
        delta[:, i] = 0.0  # already fixed
        k_extra = np.zeros(b_n)
        capped = np.zeros(b_n, dtype=bool)
        unresolved = active & (_violation_ref(a, const, p) > eps)
        for _ in range(max_steps):
            if not unresolved.any():
                break
            best_v = np.full(b_n, np.inf)
            best_j = np.full(b_n, -1, dtype=int)
            for j in range(m):
                cand = p + delta[:, j][:, None] * a.weights[:, j][None, :]
                vj = _violation_ref(a, const, cand)
                vj = np.where(delta[:, j] == 0.0, np.inf, vj)  # already fixed
                better = unresolved & (vj < best_v)
                best_v[better] = vj[better]
                best_j[better] = j
            stuck = unresolved & (best_j < 0)  # nothing left to fix
            capped |= stuck
            movable = unresolved & ~stuck
            rows = np.flatnonzero(movable)
            p[rows] += delta[rows, best_j[rows]][:, None] * a.weights[:, best_j[rows]].T
            delta[rows, best_j[rows]] = 0.0
            k_extra[rows] += 1
            unresolved = movable & (best_v > eps)
        k_extra[unresolved | capped] = max_steps  # never reached conformance
        resp[active, i] = 1.0 / (k_extra[active] + 1.0)
    return resp
