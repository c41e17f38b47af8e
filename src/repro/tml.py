"""Trusted machine learning via conformance constraints (paper Section 5).

The paper's high-level procedure (§5.3): learn a constraint phi for the
training data D, and declare a tuple non-conforming when it violates phi.
Under quantitative semantics "violates" means a positive violation score;
``threshold`` admits a small tolerance for noisy data.

§5.4's *sufficient* check uses only the equality invariants (projections with
sigma ~ 0): by Theorem 7, if ``F(A⃗)=0`` is a strict invariant for D that is
relevant to the model class, [D;Y] is nontrivial, and some model fits D, then
any tuple with F(t) != 0 is non-conforming — no false positives.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as Fn

from repro.core.constraints import Constraint, SimpleConstraint
from repro.core.scoring import score


def flag_non_conforming(
    df: DataFrame, constraint: Constraint, threshold: float = 0.0, col_name: str = "non_conforming"
) -> DataFrame:
    """``df`` plus a boolean column: violation score > ``threshold``."""
    scored = score(df, constraint, col_name)
    return scored.withColumn(col_name, Fn.col(col_name) > Fn.lit(threshold))


def equality_check_non_conforming(
    constraint: SimpleConstraint, pdf: pd.DataFrame, tol: float = 1e-6
) -> np.ndarray:
    """Theorem 7's sufficient check, vectorized over a pandas frame.

    A tuple is flagged iff some equality conjunct F (sigma ~ 0 on D) has
    |F(t) - mu(F(D))| > tol.  Sound (never flags a conforming tuple, under the
    theorem's assumptions) but incomplete.
    """
    flags = np.zeros(len(pdf), dtype=bool)
    for b in constraint.equality_conjuncts():
        x = pdf[list(b.cols)].to_numpy(dtype=np.float64)
        f = x @ np.asarray(b.weights, dtype=np.float64)
        flags |= np.abs(f - b.mean) > tol
    return flags


def ite(r: np.ndarray, t_const: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The paper's if-then-else combinator ``t + r*(t_const - t)`` (§5.4).

    Used by Theorem 7's model transformation g = λτ. f(ite(F(τ), t1, τ)):
    returns ``t_const`` when r=1 and ``t`` when r=0.
    """
    r = np.asarray(r, dtype=np.float64).reshape(-1, 1)
    return t + r * (t_const - t)
