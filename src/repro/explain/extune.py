"""ExTuNe (paper §6.3): responsibility of each attribute for non-conformance.

For a non-conforming tuple t and attribute A_i:

1. intervene on ``t.A_i`` — replace it with the attribute's *typical* value
   (the training mean; for a tuple matched by a disjunctive branch, that
   branch's partition-conditional mean — the global mean can never satisfy a
   partition-local constraint, see DESIGN.md §3);
2. count how many **additional** attributes K must be set to typical values
   until the tuple's violation reaches ~0 (the paper leaves the search
   unspecified; we use greedy best-first, capped at ``max_steps``);
3. responsibility(A_i) = 1 / (K + 1); tuples that already conform get 0.

Per-tuple responsibilities are averaged over the test set.  The search runs
distributed via ``mapInPandas``; inside a batch the constraint is flattened
into projection space so an intervention is a rank-1 update of the projection
values — no per-candidate re-evaluation of the whole constraint.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.constraints import (
    CompoundConstraint,
    Constraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    branch_keys,
)

_EPS = 1e-9


@dataclass
class _Atoms:
    """Flattened bounded-projection atoms applicable to one tuple group.

    ``weights`` is (K, m) over the ``cols`` order; ``coef`` folds each atom's
    gamma and its part's 1/|parts| factor; ``const`` collects contributions
    that no numerical intervention can remove (unseen disjunctive branches).
    """

    weights: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    alpha: np.ndarray
    coef: np.ndarray
    const: float
    fix_values: np.ndarray  # (m,) intervention targets for this group


def _simple_arrays(c: SimpleConstraint, cols: Sequence[str], part_coef: float):
    idx = {name: i for i, name in enumerate(cols)}
    rows, lb, ub, alpha, coef = [], [], [], [], []
    for b in c.conjuncts:
        w = np.zeros(len(cols))
        for name, wi in zip(b.cols, b.weights):
            w[idx[name]] = wi
        rows.append(w)
        lb.append(b.lb)
        ub.append(b.ub)
        alpha.append(b.alpha)
        coef.append(b.gamma * part_coef)
    return rows, lb, ub, alpha, coef


def _flatten(
    constraint: Constraint,
    cols: Sequence[str],
    branch_values: dict[str, str],
    global_means: np.ndarray,
) -> _Atoms:
    """Flatten ``constraint`` for the tuple group whose disjunctive switch
    attributes take ``branch_values`` (attr -> ``branch_key`` of the value)."""
    parts: tuple[Constraint, ...]
    if isinstance(constraint, CompoundConstraint):
        parts = constraint.parts
    else:
        parts = (constraint,)
    part_coef = 1.0 / len(parts) if parts else 1.0
    rows, lb, ub, alpha, coef = [], [], [], [], []
    const = 0.0
    fix = np.asarray(global_means, dtype=np.float64).copy()
    fix_set = False
    for p in parts:
        if isinstance(p, SimpleConstraint):
            r = _simple_arrays(p, cols, part_coef)
        elif isinstance(p, DisjunctiveConstraint):
            branch = p.branches.get(branch_values.get(p.attr, ""))
            if branch is None:
                const += part_coef  # unseen value: permanently violated part
                continue
            r = _simple_arrays(branch, cols, part_coef)
            if not fix_set and len(branch.col_means) == len(cols):
                # partition-conditional intervention targets (first match wins)
                fix = np.asarray(branch.col_means, dtype=np.float64)
                fix_set = True
        else:
            raise TypeError(f"cannot flatten {type(p)!r}")
        rows.extend(r[0]); lb.extend(r[1]); ub.extend(r[2]); alpha.extend(r[3]); coef.extend(r[4])
    k = len(rows)
    return _Atoms(
        weights=np.asarray(rows) if k else np.zeros((0, len(cols))),
        lb=np.asarray(lb),
        ub=np.asarray(ub),
        alpha=np.asarray(alpha),
        coef=np.asarray(coef),
        const=const,
        fix_values=fix,
    )


def _violation_from_projections(a: _Atoms, p: np.ndarray) -> np.ndarray:
    """Violation for projection-value matrix ``p`` (B, K)."""
    dev = np.maximum(0.0, np.maximum(p - a.ub, a.lb - p))
    return (a.coef * (1.0 - np.exp(-a.alpha * dev))).sum(axis=1) + a.const


def _greedy_group(
    a: _Atoms, x: np.ndarray, eps: float, max_steps: int
) -> np.ndarray:
    """(B, m) responsibilities for one flattened group of tuples ``x``."""
    b_n, m = x.shape
    resp = np.zeros((b_n, m))
    p0 = x @ a.weights.T  # (B, K)
    base = _violation_from_projections(a, p0)
    active = base > eps
    if not active.any():
        return resp
    delta0 = a.fix_values[None, :] - x  # (B, m): effect of fixing each attr
    for i in range(m):
        # step 0: fix attribute i
        p = p0 + delta0[:, i][:, None] * a.weights[:, i][None, :]
        delta = delta0.copy()
        delta[:, i] = 0.0  # already fixed
        k_extra = np.zeros(b_n)
        unresolved = active & (_violation_from_projections(a, p) > eps)
        for _ in range(max_steps):
            if not unresolved.any():
                break
            best_v = np.full(b_n, np.inf)
            best_j = np.full(b_n, -1, dtype=int)
            for j in range(m):
                cand = p + delta[:, j][:, None] * a.weights[:, j][None, :]
                vj = _violation_from_projections(a, cand)
                vj = np.where(delta[:, j] == 0.0, np.inf, vj)  # already fixed
                better = unresolved & (vj < best_v)
                best_v[better] = vj[better]
                best_j[better] = j
            movable = unresolved & (best_j >= 0)
            if not movable.any():
                break
            rows = np.flatnonzero(movable)
            p[rows] += delta[rows, best_j[rows]][:, None] * a.weights[:, best_j[rows]].T
            delta[rows, best_j[rows]] = 0.0
            k_extra[rows] += 1
            unresolved = movable & (best_v > eps)
        k_extra[unresolved] = max_steps  # cap: never reached conformance
        resp[active, i] = 1.0 / (k_extra[active] + 1.0)
    return resp


def _batch_responsibilities(
    pdf: pd.DataFrame,
    constraint: Constraint,
    cols: list[str],
    switch_attrs: list[str],
    global_means: np.ndarray,
    eps: float,
    max_steps: int,
) -> np.ndarray:
    """(B, m) responsibilities for one pandas batch."""
    out = np.zeros((len(pdf), len(cols)))
    if switch_attrs:
        keys = [branch_keys(pdf[s]) for s in switch_attrs]
        groups = pdf.groupby(keys, sort=False, dropna=False).indices
        for key, idx in groups.items():
            key = (key,) if not isinstance(key, tuple) else key
            branch_values = dict(zip(switch_attrs, key))
            a = _flatten(constraint, cols, branch_values, global_means)
            x = pdf.iloc[idx][cols].to_numpy(dtype=np.float64)
            out[idx] = _greedy_group(a, x, eps, max_steps)
    else:
        a = _flatten(constraint, cols, {}, global_means)
        out[:] = _greedy_group(a, pdf[cols].to_numpy(dtype=np.float64), eps, max_steps)
    return out


def _switch_attrs(constraint: Constraint) -> list[str]:
    if isinstance(constraint, DisjunctiveConstraint):
        return [constraint.attr]
    if isinstance(constraint, CompoundConstraint):
        return [p.attr for p in constraint.parts if isinstance(p, DisjunctiveConstraint)]
    return []


def _global_means(constraint: Constraint, cols: list[str]) -> np.ndarray:
    if isinstance(constraint, SimpleConstraint) and len(constraint.col_means) == len(cols):
        return np.asarray(constraint.col_means)
    if isinstance(constraint, CompoundConstraint):
        for p in constraint.parts:
            if isinstance(p, SimpleConstraint) and len(p.col_means) == len(cols):
                return np.asarray(p.col_means)
        # weighted average of branch means as a fallback
        sums, n = np.zeros(len(cols)), 0
        for p in constraint.parts:
            if isinstance(p, DisjunctiveConstraint):
                for br in p.branches.values():
                    if len(br.col_means) == len(cols) and br.n:
                        sums += np.asarray(br.col_means) * br.n
                        n += br.n
                if n:
                    return sums / n
    raise ValueError(
        "cannot derive intervention targets: constraint records no col_means "
        "for the requested columns"
    )


def responsibilities(
    df: DataFrame,
    constraint: Constraint,
    cols: Sequence[str],
    eps: float = _EPS,
    max_steps: int = 8,
) -> pd.Series:
    """Average per-attribute responsibility over the tuples of ``df``.

    Runs the greedy intervention search on every Spark partition via
    ``mapInPandas``; only (m+1)-length partial sums reach the driver.
    """
    cols = list(cols)
    switch = _switch_attrs(constraint)
    means = _global_means(constraint, cols)
    needed = list(dict.fromkeys(switch + cols))

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        sums = np.zeros(len(cols))
        n = 0
        for pdf in batches:
            r = _batch_responsibilities(
                pdf, constraint, cols, switch, means, eps, max_steps
            )
            sums += r.sum(axis=0)
            n += len(pdf)
        yield pd.DataFrame({"n": [n], "sums": [sums.tolist()]})

    partials = df.select(*needed).mapInPandas(
        fn, schema="n long, sums array<double>"
    ).collect()
    total = np.zeros(len(cols))
    n = 0
    for row in partials:
        total += np.asarray(row["sums"])
        n += row["n"]
    return pd.Series(total / max(n, 1), index=cols, name="responsibility")
