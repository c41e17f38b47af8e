"""The conformance-constraint language of Section 3.1, as Python values.

Grammar (paper §3.1):

    phi   := lb <= F(A⃗) <= ub | AND(phi, ..., phi)        -- simple
    psi_A := OR((A=c1) ▷ phi, (A=c2) ▷ phi, ...)           -- disjunctive
    Psi   := psi_A | AND(psi_{A1}, psi_{A2}, ...)          -- compound
    Phi   := phi | Psi

Mapping here: ``BoundedProjection`` is one ``lb <= F <= ub`` atom;
``SimpleConstraint`` is the conjunction of atoms with normalized importance
factors gamma; ``DisjunctiveConstraint`` is one psi_A (switch attribute +
per-value branch); ``CompoundConstraint`` is the outer conjunction.  All are
frozen, and serialize to plain dicts so jobs can persist discovered
constraints as JSON.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Union

import numpy as np
import pandas as pd
from pyspark.sql.types import DataType, FloatType, IntegralType

#: Floor applied to sigma when used as the scaling factor alpha = 1/sigma.
#: The paper sets alpha to "a large positive number" when sigma = 0; the floor
#: realizes that (alpha <= 1e9) while keeping equality constraints strict.
EPS_STD = 1e-9


@dataclass(frozen=True)
class BoundedProjection:
    """One atom ``lb <= F(A⃗) <= ub`` with its quantitative-semantics data.

    ``F(t) = sum_i weights[i] * t[cols[i]]``; ``mean``/``std`` are the moments
    of F on the training data (std also defines alpha = 1/max(std, EPS_STD));
    ``lb, ub = mean -/+ C*std``; ``gamma`` is the normalized importance factor
    of this conjunct inside its ``SimpleConstraint``.
    """

    cols: tuple[str, ...]
    weights: tuple[float, ...]
    mean: float
    std: float
    lb: float
    ub: float
    gamma: float

    @property
    def alpha(self) -> float:
        return 1.0 / max(self.std, EPS_STD)

    def is_equality(self, tol: float = 1e-9) -> bool:
        """True when this atom is (numerically) an equality invariant F = mean.

        Equality invariants (sigma ~ 0) are the ones Theorem 7 uses for the
        sufficient non-conformance check of Section 5.4.
        """
        return self.std <= tol


@dataclass(frozen=True)
class SimpleConstraint:
    """Conjunction of bounded-projection atoms (a phi in the grammar).

    ``col_means`` are the training-partition means of the numerical attributes
    (same order as each atom's ``cols``); they are the "more typical value"
    ExTuNe substitutes during interventions. ``n`` is the number of training
    tuples the constraint was learned from.
    """

    conjuncts: tuple[BoundedProjection, ...]
    col_means: tuple[float, ...] = ()
    n: int = 0

    @property
    def cols(self) -> tuple[str, ...]:
        return self.conjuncts[0].cols if self.conjuncts else ()

    def equality_conjuncts(self, tol: float = 1e-9) -> tuple[BoundedProjection, ...]:
        return tuple(c for c in self.conjuncts if c.is_equality(tol))


@dataclass(frozen=True)
class DisjunctiveConstraint:
    """One psi_A: ``OR((attr = v) ▷ branches[v], ...)``.

    Branch keys are ``branch_key`` of the attribute values, which is what
    ``CAST(attr AS STRING)`` gives in Spark and DuckDB, so every engine
    compares the same strings.  A tuple whose attribute value matches no
    branch, null included, gets violation 1 (paper: ``simp`` undefined).
    """

    attr: str
    branches: dict[str, SimpleConstraint] = field(default_factory=dict)


def branch_key(v: Any) -> str | None:
    """The branch key of one switch-attribute value, or None for null/NaN.

    Equals Spark's ``CAST(v AS STRING)`` for the values pandas hands over
    for atomic switch attributes: booleans become ``"true"``/``"false"``,
    floats print as Java does (shortest digits, ``"1.0E7"`` outside [1e-3,
    1e7), where DuckDB differs), timestamps drop a zero fraction of a
    second, everything else is ``str(v)``.
    """
    if v is None or v is pd.NaT or (isinstance(v, (float, np.floating)) and np.isnan(v)):
        return None
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):  # Double.toString, Float.toString for float32
        if np.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        if v == 0 or 1e-3 <= abs(v) < 1e7:
            return np.format_float_positional(v, unique=True, trim="0")
        mantissa, exp = np.format_float_scientific(v, unique=True, trim="0").split("e")
        return f"{mantissa}E{int(exp)}"
    if isinstance(v, datetime):
        s = v.strftime("%Y-%m-%d %H:%M:%S")
        return f"{s}.{v.microsecond:06d}".rstrip("0") if v.microsecond else s
    return str(v)


def branch_keys(values: pd.Series | np.ndarray, spark_type: DataType | None = None) -> np.ndarray:
    """``branch_key`` of every value, computed once per distinct value.

    ``spark_type`` is the values' Spark type, when they come from a Spark
    column: an integral column holding nulls reaches pandas as float64, and
    its keys must still read ``"1"``, as ``CAST`` gives, not ``"1.0"``; a
    float column's keys take float32's shortest digits (``"0.1"``), which
    ``factorize``, widening to float64, would lose.
    """
    codes, uniques = pd.factorize(values)
    if isinstance(spark_type, IntegralType):
        uniques = uniques.astype(np.int64)
    elif isinstance(spark_type, FloatType):
        uniques = np.asarray(uniques, dtype=np.float32)
    return np.array([branch_key(u) for u in uniques] + [None], dtype=object)[codes]


Constraint = Union[SimpleConstraint, DisjunctiveConstraint, "CompoundConstraint"]


@dataclass(frozen=True)
class CompoundConstraint:
    """Outer conjunction of disjunctive and/or simple parts (a Psi).

    The paper leaves the outer conjunction's weights unspecified; we use the
    unweighted mean of the part scores (each part already lies in [0, 1]).
    """

    parts: tuple[Constraint, ...]


def constraint_to_dict(c: Constraint) -> dict[str, Any]:
    """JSON-serializable representation (inverse of ``constraint_from_dict``)."""
    if isinstance(c, SimpleConstraint):
        return {
            "kind": "simple",
            "n": c.n,
            "col_means": list(c.col_means),
            "conjuncts": [
                {
                    "cols": list(b.cols),
                    "weights": list(b.weights),
                    "mean": b.mean,
                    "std": b.std,
                    "lb": b.lb,
                    "ub": b.ub,
                    "gamma": b.gamma,
                }
                for b in c.conjuncts
            ],
        }
    if isinstance(c, DisjunctiveConstraint):
        return {
            "kind": "disjunctive",
            "attr": c.attr,
            "branches": {v: constraint_to_dict(s) for v, s in c.branches.items()},
        }
    if isinstance(c, CompoundConstraint):
        return {"kind": "compound", "parts": [constraint_to_dict(p) for p in c.parts]}
    raise TypeError(f"not a constraint: {type(c)!r}")


def constraint_from_dict(d: dict[str, Any]) -> Constraint:
    kind = d["kind"]
    if kind == "simple":
        return SimpleConstraint(
            conjuncts=tuple(
                BoundedProjection(
                    cols=tuple(b["cols"]),
                    weights=tuple(b["weights"]),
                    mean=b["mean"],
                    std=b["std"],
                    lb=b["lb"],
                    ub=b["ub"],
                    gamma=b["gamma"],
                )
                for b in d["conjuncts"]
            ),
            col_means=tuple(d.get("col_means", ())),
            n=d.get("n", 0),
        )
    if kind == "disjunctive":
        return DisjunctiveConstraint(
            attr=d["attr"],
            branches={v: constraint_from_dict(s) for v, s in d["branches"].items()},
        )
    if kind == "compound":
        return CompoundConstraint(parts=tuple(constraint_from_dict(p) for p in d["parts"]))
    raise ValueError(f"unknown constraint kind {kind!r}")


def normalize_gammas(raw: list[float]) -> list[float]:
    """Normalize raw importance factors to sum to 1 (Algorithm 1 line 8)."""
    z = float(np.sum(raw))
    if z <= 0:
        return [1.0 / len(raw)] * len(raw) if raw else []
    return [g / z for g in raw]
