"""Constraint synthesis (paper Section 4).

``discover_simple``      — Algorithm 1 + the bound synthesis of §4.1.1:
                           one distributed Gram pass, driver-side (m+1)x(m+1)
                           eigendecomposition, bounds mu -/+ C*sigma (C=4).
``discover_disjunctive`` — §4.2: partition on one low-cardinality attribute
                           (<= 50 distinct values), learn one simple
                           constraint per partition from a single grouped
                           Gram pass.
``discover``             — the final compound constraint: conjunction of one
                           disjunctive constraint per eligible attribute
                           (plus, by default, the global simple constraint so
                           datasets without categorical attributes are
                           handled uniformly).

``discover`` scans the data once: a single ``gram_pass`` collects the global
Gram, a grouped Gram per candidate switch attribute and each candidate's
distinct values, and the driver then picks the eligible attributes and solves
the small eigenproblems.  It equals composing ``eligible_partition_attrs``,
``discover_simple`` and ``discover_disjunctive``, which take a pass each.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as Fn
from pyspark.sql.types import (
    BooleanType,
    DateType,
    DecimalType,
    StringType,
    TimestampNTZType,
    TimestampType,
)

from repro.core.constraints import (
    BoundedProjection,
    CompoundConstraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    normalize_gammas,
)
from repro.core.gram import (
    GramResult,
    augmented_gram,
    gram_pass,
    grouped_augmented_gram,
    numeric_columns,
)
from repro.core.projections import derive_projections, importance_raw

#: Paper's deviation multiplier: lb, ub = mu -/+ C * sigma.
C = 4.0
#: Paper's partitioning threshold: attributes with <= 50 distinct values.
MAX_BRANCHES = 50
#: Spark types an attribute must have to be auto-selected as a switch: atomic
#: and non-numeric.  Arrays, maps, structs and binary are never candidates.
SWITCH_TYPES = (StringType, BooleanType, DateType, TimestampType, TimestampNTZType, DecimalType)


def simple_from_gram(gram: GramResult) -> SimpleConstraint:
    """Build a simple constraint from a precomputed moments record.  Sigma is
    floored at float64's rounding of ``w . t`` near the training mean: on
    columns far from 0 a narrower bound rejects the training data."""
    projections = derive_projections(gram)
    gammas = normalize_gammas([importance_raw(p.std) for p in projections])
    ulp = len(gram.cols) * np.finfo(np.float64).eps
    stds = [max(p.std, ulp * float(np.abs(p.weights) @ np.abs(gram.mean))) for p in projections]
    conjuncts = tuple(
        BoundedProjection(
            cols=p.cols,
            weights=p.weights,
            mean=p.mean,
            std=std,
            lb=p.mean - C * std,
            ub=p.mean + C * std,
            gamma=g,
        )
        for p, g, std in zip(projections, gammas, stds)
    )
    return SimpleConstraint(
        conjuncts=conjuncts,
        col_means=tuple(float(x) for x in gram.mean),
        n=gram.n,
    )


def discover_simple(df: DataFrame, cols: Sequence[str] | None = None) -> SimpleConstraint:
    """Learn the paper's simple (conjunctive) constraint for ``df``."""
    cols = list(cols) if cols is not None else numeric_columns(df)
    return simple_from_gram(augmented_gram(df, cols))


def discover_disjunctive(
    df: DataFrame, attr: str, cols: Sequence[str] | None = None
) -> DisjunctiveConstraint:
    """Learn ``OR((attr = v) ▷ phi_v)`` with one grouped Gram pass over ``df``."""
    cols = list(cols) if cols is not None else [c for c in numeric_columns(df) if c != attr]
    grouped = grouped_augmented_gram(df, attr, cols)
    attr_type = df.schema[attr].dataType.simpleString()
    return disjunctive_from_grams(attr, attr_type, grouped)


def disjunctive_from_grams(
    attr: str, attr_type: str, grouped: dict[str, GramResult]
) -> DisjunctiveConstraint:
    """Build ``OR((attr = v) ▷ phi_v)`` from precomputed per-branch Grams of
    a switch of Spark type ``attr_type``.  A branch of n <= m rows over m
    columns is "no evidence" and gets a trivial (always satisfied)
    constraint: its scatter has rank below m, so Algorithm 1 would bound
    m + 1 - n projections at sigma = 0, which fresh tuples of the same
    distribution break (DESIGN.md §3)."""
    branches = {
        v: (
            simple_from_gram(g)
            if g.n > len(g.cols)
            else SimpleConstraint(
                conjuncts=(),
                col_means=tuple(float(x) for x in g.mean),
                n=g.n,
            )
        )
        for v, g in grouped.items()
    }
    return DisjunctiveConstraint(attr=attr, attr_type=attr_type, branches=branches)


def switch_candidates(df: DataFrame, numeric_cols: Sequence[str]) -> list[str]:
    """Columns of ``df`` that auto-selection may use as switch attributes.

    Those of an atomic non-numeric type (``SWITCH_TYPES``) outside
    ``numeric_cols``, in schema order.
    """
    numeric = set(numeric_cols)
    return [
        f.name
        for f in df.schema.fields
        if f.name not in numeric and isinstance(f.dataType, SWITCH_TYPES)
    ]


def eligible_partition_attrs(df: DataFrame, numeric_cols: Sequence[str]) -> list[str]:
    """Auto-select switch attributes: candidates with 2..``MAX_BRANCHES``
    distinct values.

    Mirrors the paper's "attributes A_j for which |{t.A_j : t in D}| <= 50".
    Candidates are the ``switch_candidates``; numeric categorical attributes
    (e.g. LED's ``digit``) can be passed to ``discover`` explicitly.
    ``discover`` applies the same rule to the distinct keys its single pass
    collects; this standalone version counts with one aggregation.
    """
    candidates = switch_candidates(df, numeric_cols)
    if not candidates:
        return []
    counts = df.agg(
        *[Fn.countDistinct(Fn.col(c)).alias(c) for c in candidates]
    ).first()
    return [c for c in candidates if 2 <= counts[c] <= MAX_BRANCHES]


def discover(
    df: DataFrame,
    cols: Sequence[str] | None = None,
    partition_attrs: Sequence[str] | None = None,
    include_global: bool = True,
) -> CompoundConstraint:
    """Learn the final compound constraint for ``df`` (DISYNTH's output).

    ``cols`` — numerical attributes to build projections over (default: all);
    ``partition_attrs`` — switch attributes (default: the
    ``switch_candidates`` with 2..``MAX_BRANCHES`` distinct non-null values);
    ``include_global`` — also conjoin the global simple constraint (the W-PCA
    baseline equals ``include_global=True`` with no partition attrs).
    Every Gram comes from one ``gram_pass``, so this is one Spark job.
    """
    cols = list(cols) if cols is not None else numeric_columns(df)
    auto = partition_attrs is None
    attrs = switch_candidates(df, cols) if auto else list(partition_attrs)
    grams = gram_pass(
        df,
        cols if include_global or auto or not attrs else None,
        {a: [c for c in cols if c != a] for a in attrs},
        max_keys=MAX_BRANCHES if auto else None,
    )
    if auto:  # the pass already dropped candidates with > MAX_BRANCHES keys
        attrs = [a for a in attrs if grams.distinct.get(a, 0) >= 2]
    parts: list = []
    if include_global or not attrs:
        parts.append(simple_from_gram(grams.total))
    for attr in attrs:
        attr_type = df.schema[attr].dataType.simpleString()
        parts.append(disjunctive_from_grams(attr, attr_type, grams.grouped[attr]))
    return CompoundConstraint(parts=tuple(parts))

