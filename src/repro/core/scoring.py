"""Quantitative semantics of conformance constraints (paper §3.2).

    [[lb <= F <= ub]](t)      = eta(alpha * max(0, F(t) - ub, lb - F(t)))
    [[AND(phi_1..phi_K)]](t)  = sum_k gamma_k * [[phi_k]](t)
    [[psi_A]](t)              = [[branch for t.A]](t), or 1 if no branch
    [[AND(psi_1..psi_J)]](t)  = mean_j [[psi_j]](t)

with eta(z) = 1 - e^{-z} and alpha = 1/sigma(F(D)) (floored, see
``constraints.EPS_STD``).  Three interchangeable evaluators:

* ``violation_col``  — a pure Catalyst ``Column`` (no UDF): scoring runs
  entirely inside Tungsten, scales out with the data, and is the evaluator
  every experiment uses;
* ``violation_sql``  — the *same* expression as SQL text, so the DuckDB
  oracle can independently evaluate it and the tests can diff the two;
* ``violation_numpy`` — a vectorized reference used by ExTuNe's greedy
  intervention search and by the theory tests.
"""
from __future__ import annotations

from functools import reduce
from typing import Mapping

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as Fn
from pyspark.sql.types import DataType

from repro.core.constraints import (
    BoundedProjection,
    CompoundConstraint,
    Constraint,
    DisjunctiveConstraint,
    EPS_STD,
    SimpleConstraint,
    branch_keys,
)

# ---------------------------------------------------------------------------
# Catalyst evaluator
# ---------------------------------------------------------------------------


def _projection_col(b: BoundedProjection) -> Column:
    terms = [Fn.col(c) * Fn.lit(w) for c, w in zip(b.cols, b.weights)]
    return reduce(lambda a, x: a + x, terms)


def _atom_col(b: BoundedProjection) -> Column:
    f = _projection_col(b)
    dev = Fn.greatest(Fn.lit(0.0), f - Fn.lit(b.ub), Fn.lit(b.lb) - f)
    return Fn.lit(1.0) - Fn.exp(-Fn.lit(b.alpha) * dev)


def violation_col(c: Constraint) -> Column:
    """The violation score [[c]](t) as a Catalyst column expression."""
    if isinstance(c, SimpleConstraint):
        if not c.conjuncts:
            return Fn.lit(0.0)
        terms = [Fn.lit(b.gamma) * _atom_col(b) for b in c.conjuncts]
        return reduce(lambda a, x: a + x, terms)
    if isinstance(c, DisjunctiveConstraint):
        expr: Column | None = None
        attr_s = Fn.col(c.attr).cast("string")
        for v, branch in c.branches.items():
            cond = attr_s == Fn.lit(v)
            expr = Fn.when(cond, violation_col(branch)) if expr is None else expr.when(
                cond, violation_col(branch)
            )
        return Fn.lit(1.0) if expr is None else expr.otherwise(Fn.lit(1.0))
    if isinstance(c, CompoundConstraint):
        if not c.parts:
            return Fn.lit(0.0)
        total = reduce(lambda a, x: a + x, [violation_col(p) for p in c.parts])
        return total / Fn.lit(float(len(c.parts)))
    raise TypeError(f"not a constraint: {type(c)!r}")


def constraint_columns(c: Constraint) -> list[str]:
    """All input columns a constraint reads (projection cols + switch attrs)."""
    if isinstance(c, SimpleConstraint):
        return list(c.cols)
    if isinstance(c, DisjunctiveConstraint):
        out: list[str] = [c.attr]
        for branch in c.branches.values():
            out.extend(constraint_columns(branch))
        return list(dict.fromkeys(out))
    if isinstance(c, CompoundConstraint):
        out = []
        for p in c.parts:
            out.extend(constraint_columns(p))
        return list(dict.fromkeys(out))
    raise TypeError(f"not a constraint: {type(c)!r}")


def _types(df: DataFrame) -> dict[str, DataType]:
    return {f.name: f.dataType for f in df.schema.fields}


def score(
    df: DataFrame, c: Constraint, col_name: str = "violation", engine: str = "pandas"
) -> DataFrame:
    """``df`` with an extra column holding the violation score of each tuple.

    ``engine="pandas"`` (default) evaluates the constraint with the
    Arrow-vectorized numpy kernel inside ``mapInPandas`` — for realistic
    compound constraints (hundreds of atoms over dozens of attributes) this
    is ~100x faster than the Catalyst expression, whose generated code blows
    the JVM's 64 KB method limit and falls back to interpreted evaluation.
    ``engine="catalyst"`` uses the pure expression (kept for the DuckDB
    oracle cross-checks and as the no-Python-worker path).
    """
    if engine == "catalyst":
        return df.withColumn(col_name, violation_col(c))
    if engine != "pandas":
        raise ValueError(f"unknown engine {engine!r}")
    from pyspark.sql.types import DoubleType, StructField, StructType

    out_schema = StructType(df.schema.fields + [StructField(col_name, DoubleType())])
    types = _types(df)

    def fn(batches):
        for pdf in batches:
            pdf = pdf.copy()
            pdf[col_name] = violation_numpy(c, pdf, types)
            yield pdf

    return df.mapInPandas(fn, schema=out_schema)


def average_violation(df: DataFrame, c: Constraint, engine: str = "pandas") -> float:
    """Mean violation of ``df``'s tuples — the paper's drift magnitude."""
    if engine == "catalyst":
        row = df.select(Fn.avg(violation_col(c)).alias("v")).first()
        return float(row["v"]) if row["v"] is not None else 0.0
    if engine != "pandas":
        raise ValueError(f"unknown engine {engine!r}")
    cols = constraint_columns(c)
    types = _types(df)

    def fn(batches):
        total = 0.0
        n = 0
        for pdf in batches:
            v = violation_numpy(c, pdf, types)
            total += float(v.sum())
            n += len(v)
        yield pd.DataFrame({"total": [total], "n": [n]})

    partials = df.select(*cols).mapInPandas(fn, schema="total double, n long").collect()
    n = sum(r["n"] for r in partials)
    return sum(r["total"] for r in partials) / n if n else 0.0


# ---------------------------------------------------------------------------
# SQL mirror (for the DuckDB oracle)
# ---------------------------------------------------------------------------


def _q(ident: str) -> str:
    return '"' + ident.replace('"', '""') + '"'


def _projection_sql(b: BoundedProjection) -> str:
    return " + ".join(f"({_q(c)} * {w!r})" for c, w in zip(b.cols, b.weights))


def _atom_sql(b: BoundedProjection) -> str:
    f = f"({_projection_sql(b)})"
    dev = f"greatest(0.0, {f} - {b.ub!r}, {b.lb!r} - {f})"
    return f"(1.0 - exp(-({b.alpha!r}) * {dev}))"


def violation_sql(c: Constraint) -> str:
    """The same violation expression as SQL text (DuckDB + Spark compatible)."""
    if isinstance(c, SimpleConstraint):
        if not c.conjuncts:
            return "0.0"
        return "(" + " + ".join(f"({b.gamma!r} * {_atom_sql(b)})" for b in c.conjuncts) + ")"
    if isinstance(c, DisjunctiveConstraint):
        if not c.branches:
            return "1.0"
        whens = " ".join(
            "WHEN CAST({a} AS VARCHAR) = '{v}' THEN {s}".format(
                a=_q(c.attr), v=v.replace("'", "''"), s=violation_sql(s)
            )
            for v, s in c.branches.items()
        )
        return f"(CASE {whens} ELSE 1.0 END)"
    if isinstance(c, CompoundConstraint):
        if not c.parts:
            return "0.0"
        total = " + ".join(violation_sql(p) for p in c.parts)
        return f"(({total}) / {float(len(c.parts))!r})"
    raise TypeError(f"not a constraint: {type(c)!r}")


# ---------------------------------------------------------------------------
# numpy reference evaluator
# ---------------------------------------------------------------------------


def _atom_numpy(b: BoundedProjection, pdf: pd.DataFrame) -> np.ndarray:
    x = pdf[list(b.cols)].to_numpy(dtype=np.float64)
    f = x @ np.asarray(b.weights, dtype=np.float64)
    dev = np.maximum(0.0, np.maximum(f - b.ub, b.lb - f))
    return 1.0 - np.exp(-b.alpha * dev)


def violation_numpy(
    c: Constraint, pdf: pd.DataFrame, types: Mapping[str, DataType] | None = None
) -> np.ndarray:
    """Vectorized reference implementation of [[c]] over a pandas frame.

    ``types`` maps column names to their Spark types when ``pdf`` is a batch
    of a Spark DataFrame; switch attributes are keyed with them.
    """
    n = len(pdf)
    if isinstance(c, SimpleConstraint):
        out = np.zeros(n, dtype=np.float64)
        for b in c.conjuncts:
            out += b.gamma * _atom_numpy(b, pdf)
        return out
    if isinstance(c, DisjunctiveConstraint):
        out = np.ones(n, dtype=np.float64)
        keys = branch_keys(pdf[c.attr], (types or {}).get(c.attr))
        for v, branch in c.branches.items():
            mask = keys == v
            if mask.any():
                out[mask] = violation_numpy(branch, pdf.loc[mask])
        return out
    if isinstance(c, CompoundConstraint):
        if not c.parts:
            return np.zeros(n, dtype=np.float64)
        out = np.zeros(n, dtype=np.float64)
        for p in c.parts:
            out += violation_numpy(p, pdf, types)
        return out / float(len(c.parts))
    raise TypeError(f"not a constraint: {type(c)!r}")

