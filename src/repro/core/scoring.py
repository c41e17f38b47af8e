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

* ``AtomTable.violation`` (``violation_numpy`` on a pandas frame) — the
  numpy scorer, the only one that production code runs: ``score`` applies
  it to Arrow batches inside ``mapInPandas``, and ``average_violation``
  through ``mean_over_rows``;
* ``violation_sql`` — the table as SQL text, which the DuckDB oracle runs;
* ``violation_col`` — the same text in Spark's dialect, as a Catalyst column.
  Only the tests evaluate it, to check the numpy kernel and the DuckDB text
  against a Spark-native twin; no production path reaches it.

One branch walk serves every numpy evaluator.  ``AtomTable.groups`` matches
each tuple's switch values to branches by value (``pd.Index.get_indexer`` on
the values the keys parse to in the recorded switch type, so a bigint branch
"1" matches 1.0 in a double column) and groups the tuples on those branch
indices; ``AtomTable.met`` gives, once per combination, the atoms its tuples
meet as one stacked block and the weight of the parts where they meet none.
The scorer applies ``eta_sum`` to that block, and ExTuNe intervenes on it.
``mean_over_rows`` is the one reduction behind ``average_violation``,
ExTuNe's ``responsibilities``, ``linreg.mae`` and the drift baselines'
window scores.  It runs through ``gram.collect_partials``, as the Gram
pass does: on the driver when the input's plan is at most
``gram.LOCAL_PASS_BYTES`` (64 MiB), which skips the Python workers' fixed
hand-off cost on inputs up to airlines' training split, else in
``mapInPandas``.  The SQL walk matches branches with
``attr = CAST('<key>' AS <type>)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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
from repro.core.gram import _map_in_pandas, collect_partials, select_columns


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
    scores ``weight`` (1/|parts|) on the part.  ``means`` are the first
    training means any block records, or None.
    """

    cols: tuple[str, ...]
    weight: float
    parts: tuple[tuple[Switch | None, tuple[Block, ...]], ...]
    means: np.ndarray | None
    _met: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def switches(self) -> tuple[Switch, ...]:
        """The switches of the disjunctive parts."""
        return tuple(sw for sw, _ in self.parts if sw is not None)

    @property
    def columns(self) -> list[str]:
        """Every column an evaluator reads: the switch attributes, then ``cols``."""
        return list(dict.fromkeys([*(sw.attr for sw in self.switches), *self.cols]))

    def met(self, key: tuple[int, ...]) -> tuple[Block, float]:
        """The blocks that tuples with branch indices ``key`` (one per switch,
        -1 for none) meet, stacked into one block, and the weight of the
        parts with no block for them; memoized, so each key is built once per
        table (once per Spark task).

        The block's ``col_means``, ExTuNe's intervention targets, are the
        first matched branch's means, else the simple part's, else ``means``.
        """
        if key not in self._met:
            branches = iter(key)
            blocks, const, branch_means, simple_means = [], 0.0, [], []
            for sw, part in self.parts:
                j = 0 if sw is None else int(next(branches))
                if j < 0:
                    const += self.weight  # unseen or null value: permanently violated part
                    continue
                blocks.append(part[j])
                (simple_means if sw is None else branch_means).append(part[j].col_means)
            fix = next((m for m in [*branch_means, *simple_means] if m is not None), self.means)
            empty = Block(np.zeros((0, len(self.cols))), *[np.zeros(0)] * 4)
            fields = ("weights", "lb", "ub", "alpha", "coef")
            stacked = {f: np.concatenate([getattr(b, f) for b in [empty, *blocks]]) for f in fields}
            self._met[key] = Block(**stacked, col_means=fix), const
        return self._met[key]

    def groups(self, pdf: pd.DataFrame) -> Iterator[tuple[slice | np.ndarray, Block, float]]:
        """``(rows, block, const)`` for each branch combination among the rows
        of ``pdf``: the positions of its rows and what they meet (``met``).
        With no switch, ``rows`` is ``slice(None)``, so nothing is copied."""
        if not self.switches:
            yield (slice(None), *self.met(()))
            return
        codes = [sw.branch(pdf) for sw in self.switches]
        for key, rows in pdf.groupby(codes, sort=False).indices.items():
            yield (rows, *self.met(key if isinstance(key, tuple) else (key,)))

    def violation(self, pdf: pd.DataFrame) -> np.ndarray:
        """[[c]](t) for every row of ``pdf``."""
        x = pdf[list(self.cols)].to_numpy(dtype=np.float64)
        out = np.empty(len(pdf))
        for rows, b, const in self.groups(pdf):
            out[rows] = eta_sum(b, x[rows] @ b.weights.T) + const
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
    recorded = (b.col_means for _, bs in blocks for b in bs if b.col_means is not None)
    return AtomTable(cols=cols, weight=weight, parts=blocks, means=next(recorded, None))


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
    interpreted evaluation.)  A column named ``x.1`` keeps its name.
    """
    table = compile_constraint(c)
    out_schema = StructType(df.schema.fields + [StructField(col_name, DoubleType())])

    def fn(batches):
        for pdf in batches:
            pdf = pdf.copy()
            pdf[col_name] = table.violation(pdf)
            yield pdf

    return _map_in_pandas(df, fn, out_schema)


def mean_over_rows(
    df: DataFrame,
    cols: Sequence[str],
    per_row: Callable[[pd.DataFrame], np.ndarray],
    width: int = 1,
) -> np.ndarray:
    """The mean of ``per_row`` over the tuples of ``df`` it keeps: it maps a
    pandas batch of the columns ``cols`` to one value, or one row of
    ``width`` values, per tuple it keeps; zeros if it keeps none.

    One pass (``gram.collect_partials``): each Spark task, or the driver for
    a small ``df``, sums its batches, and only a row count and ``width`` sums
    per task reach the driver.
    """

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        n, sums = 0, np.zeros(width)
        for pdf in batches:
            sums += (v := per_row(pdf)).sum(axis=0)
            n += len(v)
        yield pd.DataFrame({"n": [n], "sums": [sums.tolist()]})

    partials = collect_partials(select_columns(df, cols), fn, "n long, sums array<double>")
    n = sum(r["n"] for r in partials)
    total = sum((np.asarray(r["sums"]) for r in partials), np.zeros(width))
    return total / n if n else total


def average_violation(df: DataFrame, c: Constraint) -> float:
    """Mean violation of ``df``'s tuples — the paper's drift magnitude."""
    table = compile_constraint(c)
    return float(mean_over_rows(df, table.columns, table.violation)[0])
