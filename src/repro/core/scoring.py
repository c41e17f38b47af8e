"""Quantitative semantics of conformance constraints (paper §3.2).

    [[lb <= F <= ub]](t)      = eta(alpha * max(0, F(t) - ub, lb - F(t)))
    [[AND(phi_1..phi_K)]](t)  = sum_k gamma_k * [[phi_k]](t)
    [[psi_A]](t)              = [[branch for t.A]](t), or 1 if no branch
    [[AND(psi_1..psi_J)]](t)  = mean_j [[psi_j]](t)

with eta(z) = 1 - e^{-z} and alpha = 1/sigma(F(D)) (floored, see
``constraints.EPS_STD``).  An atom whose projection is null or NaN scores
eta = 1: the constraint cannot vouch for the tuple, as for a null switch value.

``compile_constraint`` turns a constraint, once and on the driver, into an
``AtomTable`` of dense atom arrays, and every evaluator derives from it:

* ``violation_numpy`` — the numpy scorer, the only one that production code
  runs: ``score`` and ``average_violation`` apply it to Arrow batches inside
  ``mapInPandas``, and its kernel ``eta_sum`` also scores ExTuNe's
  interventions;
* ``violation_sql`` — the table as SQL text, which the DuckDB oracle runs;
* ``violation_col`` — the same text in Spark's dialect, as a Catalyst column.
  Only the tests evaluate it, to check the numpy kernel and the DuckDB text
  against a Spark-native twin; no production path reaches it.

A disjunctive part matches a tuple's switch value to a branch by value: its
keys are parsed once into values of the recorded switch type and matched with
``pd.Index.get_indexer`` (numpy, ExTuNe) or ``attr = CAST('<key>' AS <type>)``
(SQL), so a bigint branch "1" matches 1.0 in a double column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as Fn
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.core.constraints import (
    CompoundConstraint,
    Constraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    branch_value,
)


@dataclass(frozen=True)
class Block:
    """The atoms of one simple constraint over its table's ``cols``.

    Atom k is ``lb[k] <= weights[k] @ t <= ub[k]`` (``weights`` is (K, m));
    ``coef[k]`` is its gamma times the table's part weight.  ``col_means``
    are the training means of ``cols`` the constraint records, or None.
    """

    weights: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    alpha: np.ndarray
    coef: np.ndarray
    col_means: np.ndarray | None = None


@dataclass(frozen=True)
class Switch:
    """The switch of a disjunctive part: attribute ``attr`` of Spark type
    ``type``, its branch ``keys`` and their ``values`` in that type."""

    attr: str
    type: str
    keys: tuple[str, ...]
    values: pd.Index

    def branch(self, pdf: pd.DataFrame) -> np.ndarray:
        """Each row's branch index, -1 for none (null, NaN, unseen value)."""
        return self.values.get_indexer(pdf[self.attr])


@dataclass(frozen=True)
class AtomTable:
    """A constraint compiled for evaluation, over numeric ``cols``.

    Each part of the outer conjunction is ``(switch, blocks)``: a simple part
    has ``switch`` None and one block; a disjunctive part has one block per
    branch, in the order of ``switch.keys``.  A tuple that matches no branch
    scores ``weight`` (1/|parts|) on the part.
    """

    cols: tuple[str, ...]
    weight: float
    parts: tuple[tuple[Switch | None, tuple[Block, ...]], ...]

    @property
    def switches(self) -> tuple[Switch, ...]:
        """The switches of the disjunctive parts."""
        return tuple(sw for sw, _ in self.parts if sw is not None)

    def violation(self, pdf: pd.DataFrame) -> np.ndarray:
        """[[c]](t) for every row of ``pdf``."""
        x = pdf[list(self.cols)].to_numpy(dtype=np.float64)
        out = np.zeros(len(pdf))
        for sw, blocks in self.parts:
            if sw is None:
                out += eta_sum(blocks[0], x @ blocks[0].weights.T)
                continue
            v = np.full(len(pdf), self.weight)
            branch = sw.branch(pdf)
            for j, b in enumerate(blocks):
                rows = np.flatnonzero(branch == j)
                if len(rows):
                    v[rows] = eta_sum(b, x[rows] @ b.weights.T)
            out += v
        return out


def compile_constraint(c: Constraint, cols: Sequence[str] | None = None) -> AtomTable:
    """``c`` as an ``AtomTable`` over ``cols``; by default every column its
    atoms read, in the order they first appear."""
    if not isinstance(c, (SimpleConstraint, DisjunctiveConstraint, CompoundConstraint)):
        raise TypeError(f"not a constraint: {type(c)!r}")
    parts = c.parts if isinstance(c, CompoundConstraint) else (c,)

    def part(p: Constraint) -> tuple[Switch | None, tuple[SimpleConstraint, ...]]:
        if not isinstance(p, DisjunctiveConstraint):
            return None, (p,)
        values = pd.Index([branch_value(k, p.attr_type) for k in p.branches])
        return Switch(p.attr, p.attr_type, tuple(p.branches), values), tuple(p.branches.values())

    switched = [part(p) for p in parts]
    if cols is None:
        cols = [n for _, br in switched for s in br for b in s.conjuncts for n in b.cols]
    cols = tuple(dict.fromkeys(cols))
    idx = {name: i for i, name in enumerate(cols)}
    weight = 1.0 / len(parts) if parts else 1.0

    def block(s: SimpleConstraint) -> Block:
        if not isinstance(s, SimpleConstraint):
            raise TypeError(f"not a simple constraint: {type(s)!r}")
        w = np.zeros((len(s.conjuncts), len(cols)))
        for k, b in enumerate(s.conjuncts):
            w[k, [idx[n] for n in b.cols]] = b.weights
        atoms = np.array([(b.lb, b.ub, b.alpha, b.gamma * weight) for b in s.conjuncts])
        lb, ub, alpha, coef = atoms.reshape(-1, 4).T.copy()
        means = np.asarray(s.col_means, dtype=np.float64)
        return Block(w, lb, ub, alpha, coef, means if len(means) == len(cols) else None)

    blocks = tuple((sw, tuple(block(s) for s in br)) for sw, br in switched)
    return AtomTable(cols=cols, weight=weight, parts=blocks)


def eta_sum(b: Block, p: np.ndarray) -> np.ndarray:
    """sum_k coef[k] * eta(alpha[k] * deviation of p[..., k] from [lb[k], ub[k]])
    for projection values ``p`` (..., K); a NaN projection scores eta = 1."""
    t = p - b.ub  # one buffer, updated in place: the same roundings, fewer allocations
    np.maximum(t, b.lb - p, out=t)
    np.maximum(t, 0.0, out=t)
    t *= -b.alpha
    np.exp(t, out=t)
    np.subtract(1.0, t, out=t)
    t[np.isnan(t)] = 1.0
    t *= b.coef
    return t.sum(axis=-1)


def violation_numpy(c: Constraint, pdf: pd.DataFrame) -> np.ndarray:
    """[[c]](t) for every row of a pandas frame (see ``AtomTable.violation``)."""
    return compile_constraint(c).violation(pdf)


def _quote(s: str, q: str) -> str:
    return q + s.replace(q, q + q) + q


def _sql(t: AtomTable, spark: bool) -> str:
    """[[c]] as SQL text in Spark's dialect or DuckDB's: they quote
    identifiers differently, and Spark reads a backslash in a string
    literal as an escape."""

    def ident(name: str) -> str:
        return _quote(name, "`" if spark else '"')

    def string(s: str) -> str:
        return _quote(s.replace("\\", "\\\\") if spark else s, "'")

    def atom(w, lb, ub, alpha, coef) -> str:
        f = " + ".join(f"({ident(c)} * {float(wi)!r})" for c, wi in zip(t.cols, w))
        f = f"coalesce({f}, CAST('NaN' AS DOUBLE))"  # null, like NaN, fails every bound
        dev = f"greatest(0.0, {f} - {float(ub)!r}, {float(lb)!r} - {f})"
        dev = f"least({dev}, CAST('Infinity' AS DOUBLE))"  # NaN sorts above infinity
        return f"({float(coef)!r} * (1.0 - exp(-({float(alpha)!r}) * {dev})))"

    def block(b: Block) -> str:
        atoms = map(atom, b.weights, b.lb, b.ub, b.alpha, b.coef)
        return "(" + " + ".join(atoms) + ")" if len(b.weights) else "0.0"

    terms = []
    for sw, blocks in t.parts:
        if sw is None:
            terms.append(block(blocks[0]))
            continue
        whens = "".join(
            f"WHEN {ident(sw.attr)} = CAST({string(k)} AS {sw.type}) THEN {block(b)} "
            for k, b in zip(sw.keys, blocks)
        )
        terms.append(f"(CASE {whens}ELSE {t.weight!r} END)")
    return "(" + " + ".join(terms) + ")" if terms else "0.0"


def violation_sql(c: Constraint) -> str:
    """[[c]] as DuckDB SQL text (the oracle's side of the engine checks)."""
    return _sql(compile_constraint(c), spark=False)


def violation_col(c: Constraint) -> Column:
    """[[c]] as a Catalyst column: ``violation_sql``'s walk in Spark's dialect."""
    return Fn.expr(_sql(compile_constraint(c), spark=True)).cast("double")


def score(df: DataFrame, c: Constraint, col_name: str = "violation") -> DataFrame:
    """``df`` with an extra double column ``col_name``: [[c]](t) of each tuple.

    The numpy kernel scores Arrow batches inside ``mapInPandas``.  (The
    Catalyst twin ``violation_col`` of a realistic compound constraint, with
    hundreds of atoms, blows the JVM's 64 KB method limit and falls back to
    interpreted evaluation.)
    """
    table = compile_constraint(c)
    out_schema = StructType(df.schema.fields + [StructField(col_name, DoubleType())])

    def fn(batches):
        for pdf in batches:
            pdf = pdf.copy()
            pdf[col_name] = table.violation(pdf)
            yield pdf

    return df.mapInPandas(fn, schema=out_schema)


def average_violation(df: DataFrame, c: Constraint) -> float:
    """Mean violation of ``df``'s tuples — the paper's drift magnitude."""
    table = compile_constraint(c)

    def fn(batches):
        total = 0.0
        n = 0
        for pdf in batches:
            v = table.violation(pdf)
            total += float(v.sum())
            n += len(v)
        yield pd.DataFrame({"total": [total], "n": [n]})

    needed = list(dict.fromkeys([*(sw.attr for sw in table.switches), *table.cols]))
    partials = df.select(*needed).mapInPandas(fn, schema="total double, n long").collect()
    n = sum(r["n"] for r in partials)
    return sum(r["total"] for r in partials) / n if n else 0.0
