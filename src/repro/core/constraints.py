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
from decimal import Decimal
from typing import Any, Union

import numpy as np
import pandas as pd

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
    """One psi_A: ``OR((attr = v) ▷ branches[branch_key(v)], ...)``.

    ``attr_type`` is the switch's Spark ``simpleString()`` at discovery
    (``"bigint"``, ``"decimal(10,2)"``, ...).  Every engine matches a tuple's
    switch value against the keys parsed in that type (``branch_value``); a
    tuple that matches none, null and NaN included, gets violation 1."""

    attr: str
    attr_type: str
    branches: dict[str, SimpleConstraint] = field(default_factory=dict)


#: Spark simple-type names of the integral types.
INTEGRAL_TYPE_NAMES = frozenset({"tinyint", "smallint", "int", "bigint"})


def branch_key(v: Any) -> str | None:
    """The display key of one switch-attribute value, or None for null/NaN.

    ``str(v)``, except that booleans become ``"true"``/``"false"`` and
    ``-0.0``, equal to ``0.0``, keys as ``"0.0"``; a float32 prints its own
    shortest digits.  ``branch_value`` parses the key back to ``v``.
    """
    if pd.isna(v):
        return None
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)) and v == 0:
        return "0.0"
    return str(v)


def branch_keys(values: pd.Series | np.ndarray, attr_type: str) -> np.ndarray:
    """``branch_key`` of every value of a switch column of Spark type
    ``attr_type``, once per distinct value.  An integral column with nulls
    reaches pandas as float64 but keys as ``"1"``; a float column keys with
    float32's shortest digits (``"0.1"``), which ``factorize`` would widen."""
    codes, uniques = pd.factorize(values)
    if attr_type in INTEGRAL_TYPE_NAMES:
        uniques = uniques.astype(np.int64)
    elif attr_type == "float":
        uniques = np.asarray(uniques, dtype=np.float32)
    return np.array([branch_key(u) for u in uniques] + [None], dtype=object)[codes]


def branch_value(key: str, attr_type: str) -> Any:
    """The switch value of Spark type ``attr_type`` whose ``branch_key`` is
    ``key``: the inverse of ``branch_key``, as ``CAST(key AS attr_type)``."""
    if attr_type == "boolean":
        return key == "true"
    if attr_type in INTEGRAL_TYPE_NAMES:
        return int(key)
    if attr_type == "double":
        return float(key)
    if attr_type == "float":
        return np.float32(key)
    if attr_type.startswith("decimal"):
        return Decimal(key)
    if attr_type.startswith("timestamp"):
        return pd.Timestamp(key)
    if attr_type == "date":
        return pd.Timestamp(key).date()
    return key


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
            "attr_type": c.attr_type,
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
            attr_type=d["attr_type"],
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
