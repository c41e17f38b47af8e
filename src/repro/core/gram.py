"""One-pass distributed second-moment (Gram) computation.

Algorithm 1 of the paper needs the (m+1)x(m+1) matrix ``G = [1|X]^T [1|X]``
where ``X`` is the n x m matrix of numerical attribute values and ``[1|X]``
prepends a constant-1 intercept column.  Section 4.3 observes that ``G`` is a
sum of per-tuple outer products, so it can be computed "in an embarrassingly
parallel way where we partition the data (row-wise) and each partition is
computed in parallel" — that is exactly what this module does: every Spark
partition emits its partial (m+1)^2 sums through ``mapInPandas`` and the
driver adds the small partials.  O(n m^2) work, O(m^2) driver memory.

The same holds for the per-partition Grams of the disjunctive constraints
(§4.2) and for the distinct values that decide which attributes may switch
them, so ``gram_pass`` collects all of it — the global Gram, one grouped Gram
per switch attribute and each candidate's distinct keys — in one scan: one
kernel, one Spark job.  ``augmented_gram`` and ``grouped_augmented_gram`` are
its no-switch and one-switch cases.

``G`` is also sufficient for every statistic the method needs downstream:
for a linear projection F(t) = w . t,

    mu(F(D))   = w . colsum / n            (colsum = G[0, 1:])
    E[F^2]     = w^T M w / n               (M = G[1:, 1:])
    var(F(D))  = E[F^2] - mu^2

so discovery makes a *single* pass over the data regardless of how many
projections Algorithm 1 returns or how many switch attributes it tries.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DataType

from repro.core.constraints import branch_keys

#: Spark simple-type names treated as numerical attributes (the paper's
#: Algorithm 1 line 1 drops everything else). Dates, strings, booleans and
#: complex types are excluded.
NUMERIC_TYPE_NAMES = frozenset(
    {"tinyint", "smallint", "int", "bigint", "float", "double"}
)


def numeric_columns(df: DataFrame) -> list[str]:
    """Names of the numerical attributes of ``df``, in schema order."""
    return [f.name for f in df.schema.fields if f.dataType.simpleString() in NUMERIC_TYPE_NAMES]


@dataclass(frozen=True)
class GramResult:
    """Row count and augmented Gram matrix ``[1|X]^T [1|X]`` for one dataset.

    ``cols`` records the attribute order of the m non-intercept columns; the
    matrix ``g`` is (m+1)x(m+1) with index 0 = the intercept column, so
    ``g[0, 0] == n``, ``g[0, 1:]`` holds column sums and ``g[1:, 1:]`` the raw
    second moments ``X^T X``.
    """

    cols: tuple[str, ...]
    n: int
    g: np.ndarray

    def projection_moments(self, weights: np.ndarray) -> tuple[float, float]:
        """Mean and standard deviation of the projection ``t -> weights . t``.

        Derived purely from the Gram matrix (no extra data pass). Variance is
        clamped at 0 against floating-point cancellation.
        """
        w = np.asarray(weights, dtype=np.float64)
        if self.n == 0:
            return 0.0, 0.0
        mean = float(w @ self.g[0, 1:]) / self.n
        second = float(w @ self.g[1:, 1:] @ w) / self.n
        var = max(second - mean * mean, 0.0)
        return mean, float(np.sqrt(var))

    def column_means(self) -> np.ndarray:
        """Per-attribute means (used as ExTuNe intervention targets)."""
        if self.n == 0:
            return np.zeros(len(self.cols))
        return self.g[0, 1:] / self.n


def _gram_of(x: np.ndarray) -> tuple[int, np.ndarray] | None:
    """Row count and ``[1|x]^T [1|x]`` over the rows of ``x`` without a NaN."""
    if x.size:
        x = x[~np.isnan(x).any(axis=1)]
    if not len(x):
        return None
    xa = np.hstack([np.ones((len(x), 1)), x])
    return len(x), xa.T @ xa


def _add(acc: dict, key: object, n: int, g: np.ndarray) -> None:
    n0, g0 = acc.get(key, (0, np.zeros_like(g)))
    acc[key] = (n0 + n, g0 + g)


#: ``(switch index, branch key)`` under which the global Gram is accumulated.
_TOTAL = (-1, None)


def _partial_grams_fn(
    cols: list[str] | None,
    switches: dict[str, list[str]],
    types: dict[str, DataType],
    max_keys: int | None,
) -> Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]]:
    """The kernel of ``gram_pass``: every partial Gram of one Spark partition.

    Emits one row per Gram: ``s = -1`` for the global one, ``s = i, v = key``
    for branch ``key`` of the i-th switch.  A key seen only on rows with a
    NaN feature has a null ``g``; a null ``v`` marks a switch that saw more
    than ``max_keys`` keys in this partition.
    """
    attrs = list(switches)

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        acc: dict[tuple[int, str | None], tuple[int, np.ndarray]] = {}
        if cols is not None:
            acc[_TOTAL] = (0, np.zeros((len(cols) + 1,) * 2, dtype=np.float64))
        seen: list[set[str] | None] = [set() for _ in attrs]  # None: over max_keys
        for pdf in batches:
            if cols is not None:
                if r := _gram_of(pdf[cols].to_numpy(dtype=np.float64, copy=False)):
                    _add(acc, _TOTAL, *r)
            for i, attr in enumerate(attrs):
                if seen[i] is None:
                    continue
                codes, uniques = pd.factorize(pdf[attr], sort=True)
                keys = list(branch_keys(uniques, types[attr]))
                seen[i].update(keys)
                if max_keys is not None and len(seen[i]) > max_keys:
                    seen[i] = None
                    continue
                x = pdf[switches[attr]].to_numpy(dtype=np.float64, copy=False)
                for code, key in enumerate(keys):
                    if r := _gram_of(x[codes == code]):
                        _add(acc, (i, key), *r)
        rows = [
            (i, k, n, g.ravel().tolist())
            for (i, k), (n, g) in acc.items()
            if i < 0 or seen[i] is not None
        ]
        for i, keys in enumerate(seen):
            if keys is None:
                rows.append((i, None, 0, None))
            else:
                rows.extend((i, k, 0, None) for k in keys if (i, k) not in acc)
        yield pd.DataFrame(rows, columns=["s", "v", "n", "g"])

    return fn


@dataclass(frozen=True)
class GramPass:
    """The Grams of one ``gram_pass``.

    ``total`` is the Gram over the pass's ``cols`` (None if not asked for);
    ``grouped[attr][key]`` is the Gram of the rows whose ``attr`` has branch
    key ``key``; ``distinct[attr]`` counts the distinct non-null keys of
    ``attr``, keys whose rows all had a NaN feature included.  A switch with
    more than ``max_keys`` keys is in neither dict.
    """

    total: GramResult | None
    grouped: dict[str, dict[str, GramResult]]
    distinct: dict[str, int]


def gram_pass(
    df: DataFrame,
    cols: Sequence[str] | None,
    switches: Mapping[str, Sequence[str]] | None = None,
    max_keys: int | None = None,
) -> GramPass:
    """Every Gram that discovery needs, from one scan of ``df`` (one Spark job).

    ``cols`` are the columns of the global Gram (None: no global Gram);
    ``switches`` maps each switch attribute to the columns of its branch
    Grams.  Branches are keyed by ``branch_key``: rows whose switch value is
    null belong to no branch.  Rows with a NaN/null in a Gram's columns are
    left out of that Gram.  A switch with more than ``max_keys`` distinct
    keys, in one partition or in all of ``df``, is dropped; its partials stop
    growing as soon as one partition sees too many keys.

    Each Gram is accumulated batch by batch and merged in partition order,
    exactly as a pass computing only that Gram would, so the result does not
    depend on what else the pass computes.
    """
    switches = {a: list(c) for a, c in (switches or {}).items()}
    attrs = list(switches)
    if cols is not None:
        cols = list(cols)
        if not cols:
            raise ValueError("a Gram pass needs at least one numerical column")
    needed = dict.fromkeys([*attrs, *(cols or []), *(c for bc in switches.values() for c in bc)])
    partials = df.select(*needed).mapInPandas(
        _partial_grams_fn(cols, switches, {a: df.schema[a].dataType for a in attrs}, max_keys),
        schema="s int, v string, n long, g array<double>",
    ).collect()

    def gcols(s: int) -> list[str]:
        return cols if s < 0 else switches[attrs[s]]

    acc: dict[tuple[int, str | None], tuple[int, np.ndarray]] = {}
    if cols is not None:
        acc[_TOTAL] = (0, np.zeros((len(cols) + 1,) * 2, dtype=np.float64))
    seen: list[set[str]] = [set() for _ in attrs]
    over: set[int] = set()
    for row in partials:
        s, v = row["s"], row["v"]
        if s >= 0 and v is None:
            over.add(s)
            continue
        if s >= 0:
            seen[s].add(v)
        if row["g"] is not None:
            m1 = len(gcols(s)) + 1
            _add(acc, (s, v), row["n"], np.asarray(row["g"], dtype=np.float64).reshape(m1, m1))
    kept = [
        s
        for s in range(len(attrs))
        if s not in over and (max_keys is None or len(seen[s]) <= max_keys)
    ]
    grams = {key: GramResult(cols=tuple(gcols(key[0])), n=n, g=g) for key, (n, g) in acc.items()}
    return GramPass(
        total=grams.get(_TOTAL),
        grouped={attrs[s]: {v: r for (i, v), r in grams.items() if i == s} for s in kept},
        distinct={attrs[s]: len(seen[s]) for s in kept},
    )


def augmented_gram(df: DataFrame, cols: Sequence[str] | None = None) -> GramResult:
    """``GramResult`` of ``df`` over ``cols``: a ``gram_pass`` with no switch.

    Rows with a NaN/null in any of ``cols`` are dropped (the generators in
    this repo produce none; documented for completeness). ``cols`` defaults to
    all numerical attributes.
    """
    return gram_pass(df, list(cols) if cols is not None else numeric_columns(df)).total


def grouped_augmented_gram(
    df: DataFrame, attr: str, cols: Sequence[str]
) -> dict[str, GramResult]:
    """Per-partition Gram matrices for the disjunctive constraints of §4.2.

    Partitions ``df`` logically by the value of ``attr`` (the paper's switch
    attribute) and returns ``{branch_key(value): GramResult}`` over ``cols``:
    a ``gram_pass`` with one switch and no global Gram.  No shuffle: each
    Spark partition groups locally and emits one partial per value it saw.
    """
    return gram_pass(df, None, {attr: cols}).grouped[attr]
