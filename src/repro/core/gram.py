"""One-pass distributed moments: count, mean and centered scatter.

Section 4.3 observes that the statistics behind the constraints are sums
over tuples, computed "in an embarrassingly parallel way where we partition
the data (row-wise) and each partition is computed in parallel".  Here every
Arrow batch of every Spark partition is reduced to a ``GramResult``: the row
count ``n``, the column means ``mu`` and the centered scatter
``S = (X - mu)^T (X - mu)``.  Records merge with the pairwise update of Chan,
Golub & LeVeque (1979), ``_merge`` — batch by batch in the partition, then
partial by partial on the driver, in partition order — which is the only
place a covariance is formed.  Unlike raw sums ``Sum x x^T``, ``S`` does not
cancel on columns far from 0 (epoch timestamps, say), so the projection
``F(t) = w . t`` gets ``mu(F) = w . mu`` and ``sigma(F) = sqrt(w^T S w / n)``
with no further pass.  Algorithm 1 (``projections.augmented_factor``),
PCA-SPLL, CD and OLS all read this one record.  O(n m^2) work, O(m^2)
driver memory.

``gram_pass`` collects every record discovery needs — the global one, one
per branch of each switch attribute (§4.2) and each candidate's distinct
keys — in one scan: one kernel, one Spark job.  ``augmented_gram`` and
``grouped_augmented_gram`` are its no-switch and one-switch cases.

Where the kernel runs is decided by ``collect_partials``, which every pass
goes through: this one and ``scoring.mean_over_rows`` (violations, MAE,
ExTuNe, drift baselines).  An input whose plan is at most
``LOCAL_PASS_BYTES`` (64 MiB: the paper's windows and airlines' 200 K-row
training split alike) is collected to the driver and reduced there as one
batch: handing batches to the Python workers costs about 0.3 s a pass
whatever the pass computes, more than the kernel itself takes on such an
input.  Larger inputs are reduced where they sit, one partial per Spark
partition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import StructType

from repro.core.constraints import INTEGRAL_TYPE_NAMES, branch_keys

#: Spark simple-type names treated as numerical attributes (the paper's
#: Algorithm 1 line 1 drops everything else). Dates, strings, booleans and
#: complex types are excluded.
NUMERIC_TYPE_NAMES = INTEGRAL_TYPE_NAMES | {"float", "double"}


def numeric_columns(df: DataFrame) -> list[str]:
    """Names of the numerical attributes of ``df``, in schema order."""
    return [f.name for f in df.schema.fields if f.dataType.simpleString() in NUMERIC_TYPE_NAMES]


@dataclass(frozen=True)
class GramResult:
    """Row count, (m,) column means and (m, m) centered scatter
    ``(X - mean)^T (X - mean)`` of the m attributes ``cols``; zeros if n = 0."""

    cols: tuple[str, ...]
    n: int
    mean: np.ndarray
    scatter: np.ndarray

    def cov(self) -> np.ndarray:
        """Population covariance ``scatter / n`` (zero when ``n == 0``)."""
        return self.scatter / max(self.n, 1)

    def projection_moments(self, weights: np.ndarray) -> tuple[float, float]:
        """Mean and standard deviation of the projection ``t -> weights . t``.

        Along a null direction of a rank-deficient ``S`` (a constant column,
        a branch of two rows) rounding may take ``w^T S w`` just below 0:
        that is sigma = 0, not NaN."""
        w = np.asarray(weights, dtype=np.float64)
        return float(w @ self.mean), float(np.sqrt(max(w @ self.cov() @ w, 0.0)))


#: ``(n, mean, scatter)``: a ``GramResult`` without its column names.
Moments = tuple[int, np.ndarray, np.ndarray]


def finite_rows(x: np.ndarray) -> np.ndarray:
    """The rows of ``x`` with no NaN or ±inf, in the layout of ``x``: BLAS sums
    C and Fortran order differently, so dropping a row must not change what
    the others sum to.  A finite row sum vouches for a row in one
    matrix-vector product; only rows whose sum is not finite, overflowed
    ones included, are checked value by value."""
    ok = np.isfinite(x @ np.ones(x.shape[1]))
    if ok.all():
        return x
    suspect = np.flatnonzero(~ok)
    ok[suspect] = np.isfinite(x[suspect]).all(axis=1)
    return x[ok] if x.flags.c_contiguous else np.asfortranarray(x[ok])


def _moments_of(x: np.ndarray) -> Moments | None:
    """Count, mean and centered scatter of the ``finite_rows`` of ``x``, by
    Chan, Golub & LeVeque's corrected two-pass algorithm: ``c`` is the first
    mean's rounding error, large enough on columns far from 0 to skew the
    merges."""
    x = finite_rows(x)
    n = len(x)
    if not n:
        return None
    u = np.full(n, 1 / n)
    mean = u @ x
    xc = x - mean
    c = u @ xc
    return n, mean + c, xc.T @ xc - n * np.outer(c, c)


def _merge(a: Moments, b: Moments) -> Moments:
    """The moments of the rows of ``a`` and ``b`` together: the pairwise
    update of Chan, Golub & LeVeque.  Merging an empty side (not both)
    returns the other side exactly."""
    (na, ma, sa), (nb, mb, sb) = a, b
    n = na + nb
    d = mb - ma
    return n, ma + d * (nb / n), sa + sb + np.outer(d, d * (na * nb / n))


def _add(acc: dict, key: object, r: Moments) -> None:
    acc[key] = _merge(acc[key], r) if key in acc else r


def _square(n: float, mean: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """``[[n, mean^T], [mean, scatter]]``; flattened, the wire form of a record."""
    return np.block([[np.full((1, 1), float(n)), mean[None, :]], [mean[:, None], scatter]])


def _unpack(n: int, packed: Sequence[float], m: int) -> Moments:
    p = np.asarray(packed, dtype=np.float64).reshape(m + 1, m + 1)
    return n, p[0, 1:], p[1:, 1:]


#: A pass whose input plan Spark estimates at no more than this many bytes
#: runs its kernel on the driver.  It lies below the speed crossover: the
#: executors only win once one core's kernel time outgrows the 0.25-0.3 s
#: hand-off to the Python workers, about 1 M rows for airlines' 26-atom
#: violation kernel (an estimate), while 64 MiB is about 600 K rows at
#: airlines' width.  It also bounds the driver memory a collected input
#: takes.  A plan of unknown size reports ``spark.sql.defaultSizeInBytes``
#: and stays on the executors.
LOCAL_PASS_BYTES = 64 << 20


def select_columns(df: DataFrame, cols: Sequence[str]) -> DataFrame:
    """``df`` restricted to the top-level columns ``cols``, named in one JVM
    call: ``select`` resolves every name through its own ``col`` call (on a
    4-core machine, 18 ms for LED's 25 columns, against 9 ms here) and reads
    ``x.1`` as field ``1`` of a struct ``x``."""
    return df.selectExpr(*("`" + c.replace("`", "``") + "`" for c in cols))


def _map_in_pandas(
    df: DataFrame,
    fn: Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]],
    schema: str | StructType,
) -> DataFrame:
    """``df.mapInPandas(fn, schema)``, with ``fn`` reading the columns of
    ``df`` by their own names.  ``mapInPandas`` looks every column up by
    name, reading ``x.1`` as field ``1`` of a struct ``x``, so the tasks get
    positional names and ``fn`` the real ones."""
    names = df.columns

    def named(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            pdf.columns = names
            yield pdf

    positional = df.toDF(*(f"_{i}" for i in range(len(names))))
    return positional.mapInPandas(lambda batches: fn(named(batches)), schema=schema)


def collect_partials(
    df: DataFrame,
    fn: Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]],
    schema: str,
) -> list:
    """The rows that the kernel ``fn`` yields over the Arrow batches of
    ``df``, in one Spark job; each row is read by column name.

    If Spark estimates the analyzed plan of ``df`` at most
    ``LOCAL_PASS_BYTES``, the driver collects it (``toPandas``) and applies
    ``fn`` to it as one batch (none if it is empty).  Otherwise every Spark
    task applies ``fn`` to its partition's batches (``mapInPandas`` with
    output ``schema``), and the driver collects their rows.

    The analyzed plan, not the optimized one: ``df`` is a fresh
    ``select_columns``, and optimizing it would look it up in the cache
    manager, which canonicalizes a local relation row by row (on a 4-core
    machine, 60 ms for a cached 200 K x 12 frame, 350 ms uncached), only for
    the job to optimize its own plan again.
    The estimates agree up to the cache's encoding (20.8 MB analyzed, 19.2 MB
    cached, for that frame).
    """
    if df._jdf.queryExecution().analyzed().stats().sizeInBytes() > LOCAL_PASS_BYTES:
        return _map_in_pandas(df, fn, schema).collect()
    pdf = df.toPandas()
    return [r for out in fn(iter([pdf] if len(pdf) else [])) for r in out.to_dict("records")]


#: ``(switch index, branch key)`` under which the global moments are accumulated.
_TOTAL = (-1, None)


def _partial_grams_fn(
    cols: list[str] | None,
    switches: dict[str, list[str]],
    types: dict[str, str],
    max_keys: int | None,
) -> Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]]:
    """The kernel of ``gram_pass``: every partial moments record of one
    Spark partition, merged batch by batch.

    Emits one row per record, ``g`` packed by ``_square``: ``s = -1`` for the
    global one, ``s = i, v = key`` for branch ``key`` of the i-th switch
    (``branch_keys`` in its Spark type ``types[attr]``).  A key seen only on
    rows with a non-finite feature has a null ``g``; a null ``v`` marks a
    switch that saw more than ``max_keys`` keys in this partition.
    """
    attrs = list(switches)

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        acc: dict[tuple[int, str | None], Moments] = {}
        seen: list[set[str] | None] = [set() for _ in attrs]  # None: over max_keys
        for pdf in batches:
            if cols is not None:
                if r := _moments_of(pdf[cols].to_numpy(dtype=np.float64, copy=False)):
                    _add(acc, _TOTAL, r)
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
                    if r := _moments_of(x[codes == code]):
                        _add(acc, (i, key), r)
        rows = [
            (i, k, r[0], _square(*r).ravel().tolist())
            for (i, k), r in acc.items()
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
    """The moments records of one ``gram_pass``.

    ``total`` is the record over the pass's ``cols`` (None if not asked for);
    ``grouped[attr][key]`` is the record of the rows whose ``attr`` has branch
    key ``key``; ``distinct[attr]`` counts the distinct non-null keys of
    ``attr``, keys whose rows all had a non-finite feature included.  A
    switch with more than ``max_keys`` keys is in neither dict.
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
    Grams.  A branch holds the rows with one switch value, keyed by its
    ``branch_key``; null and NaN belong to no branch.  Rows with a null, NaN
    or ±inf in a Gram's columns are left out of that Gram.  A switch with
    more than ``max_keys`` distinct keys, in one partition or in all of
    ``df``, is dropped; its partials stop growing as soon as one partition
    sees too many keys.  Runs on the driver or the executors as
    ``collect_partials`` decides.

    Each record is merged batch by batch and then in partition order,
    exactly as a pass computing only that record would, so the result does
    not depend on what else the pass computes.
    """
    switches = {a: list(c) for a, c in (switches or {}).items()}
    attrs = list(switches)
    if cols is not None:
        cols = list(cols)
        if not cols:
            raise ValueError("a Gram pass needs at least one numerical column")
    needed = dict.fromkeys([*attrs, *(cols or []), *(c for bc in switches.values() for c in bc)])
    types = {a: df.schema[a].dataType.simpleString() for a in attrs}
    partials = collect_partials(
        select_columns(df, needed),
        _partial_grams_fn(cols, switches, types, max_keys),
        "s int, v string, n long, g array<double>",
    )

    def gcols(s: int) -> list[str]:
        return cols if s < 0 else switches[attrs[s]]

    acc: dict[tuple[int, str | None], Moments] = {}
    if cols is not None:  # the global record, also of a frame without rows
        acc[_TOTAL] = (0, np.zeros(len(cols)), np.zeros((len(cols),) * 2))
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
            _add(acc, (s, v), _unpack(row["n"], row["g"], len(gcols(s))))
    kept = [
        s
        for s in range(len(attrs))
        if s not in over and (max_keys is None or len(seen[s]) <= max_keys)
    ]
    grams = {key: GramResult(tuple(gcols(key[0])), *r) for key, r in acc.items()}
    return GramPass(
        total=grams.get(_TOTAL),
        grouped={attrs[s]: {v: r for (i, v), r in grams.items() if i == s} for s in kept},
        distinct={attrs[s]: len(seen[s]) for s in kept},
    )


def augmented_gram(df: DataFrame, cols: Sequence[str] | None = None) -> GramResult:
    """``GramResult`` of ``df`` over ``cols``: a ``gram_pass`` with no switch.

    Rows with a null, NaN or ±inf in any of ``cols`` are dropped (the
    generators in this repo produce none; documented for completeness).
    ``cols`` defaults to all numerical attributes.
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
