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
into projection space (once per distinct branch combination and Spark task),
so an intervention is a rank-1 update of the projection values — no
per-candidate re-evaluation of the whole constraint.

All B x m searches of a branch group (violating tuple x first-fixed
attribute) run together as one array program: a round scores every
candidate fix of every unresolved search at once, takes the first best
candidate (ties go to the lowest attribute index), and keeps only the
searches still violating.  A search that has nothing left to fix while still
violating is capped at ``max_steps``, like one that runs out of steps, so a
tuple's responsibilities never depend on the other tuples of its batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DataType

from repro.core.constraints import (
    CompoundConstraint,
    Constraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    branch_keys,
)

_EPS = 1e-9
#: Most candidate projection values (searches x m x K) one round of the
#: greedy search holds at once: 512 KiB per float64 temporary, which keeps a
#: round's temporaries in cache.
_MAX_CANDIDATES = 1 << 16


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
    """Violation for projection values ``p`` (..., K), reduced over the last axis."""
    t = p - a.ub  # one buffer, updated in place: the same roundings, fewer allocations
    np.maximum(t, a.lb - p, out=t)
    np.maximum(t, 0.0, out=t)
    t *= -a.alpha
    np.exp(t, out=t)
    np.subtract(1.0, t, out=t)
    t *= a.coef
    return t.sum(axis=-1) + a.const


def _extra_fixes(
    a: _Atoms, p: np.ndarray, d: np.ndarray, eps: float, max_steps: int
) -> np.ndarray:
    """How many more attributes each of R searches fixes, capped at ``max_steps``.

    ``p`` (R, K) holds each search's projection values and ``d`` (R, m) the
    change that fixing each attribute still makes (0: fixed, or already at
    its target).  One round scores every candidate of every unresolved
    search as an (R, m, K) array, applies each search's first best fix, and
    keeps only the searches still violating.
    """
    k = np.full(len(p), float(max_steps))
    unresolved = _violation_from_projections(a, p) > eps
    k[~unresolved] = 0.0
    ids = np.flatnonzero(unresolved)
    p, d = p[ids], d[ids]
    wt = a.weights.T  # (m, K)
    for step in range(1, max_steps + 1):
        if not len(ids):
            break
        cand = d[:, :, None] * wt
        cand += p[:, None, :]
        v = _violation_from_projections(a, cand)  # (R, m)
        v[d == 0.0] = np.inf
        j = v.argmin(axis=1)  # first minimum, as a scan over j with `<` picks
        best = v[np.arange(len(j)), j]
        # a search with nothing left to fix keeps its cap
        movable = np.flatnonzero(np.isfinite(best))
        ids, j, best = ids[movable], j[movable], best[movable]
        p = cand[movable, j]
        d = d[movable]
        d[np.arange(len(j)), j] = 0.0
        done = best <= eps
        k[ids[done]] = step
        ids, p, d = ids[~done], p[~done], d[~done]
    return k


def _greedy_group(
    a: _Atoms, x: np.ndarray, eps: float, max_steps: int
) -> np.ndarray:
    """(B, m) responsibilities for one flattened group of tuples ``x``.

    Runs one search per (violating tuple, first-fixed attribute), in chunks
    of at most ``_MAX_CANDIDATES`` candidate projection values per round.
    """
    b_n, m = x.shape
    resp = np.zeros((b_n, m))
    p0 = x @ a.weights.T  # (B, K)
    active = np.flatnonzero(_violation_from_projections(a, p0) > eps)
    if not len(active):
        return resp
    tuples = np.repeat(active, m)
    first = np.tile(np.arange(m), len(active))
    delta = a.fix_values[None, :] - x  # (B, m): effect of fixing each attr
    chunk = max(1, _MAX_CANDIDATES // max(1, m * len(a.weights)))
    for s in range(0, len(tuples), chunk):
        t, i = tuples[s : s + chunk], first[s : s + chunk]
        r = np.arange(len(t))
        d = delta[t]
        p = p0[t] + d[r, i][:, None] * a.weights[:, i].T  # step 0: fix attribute i
        d[r, i] = 0.0
        resp[t, i] = 1.0 / (_extra_fixes(a, p, d, eps, max_steps) + 1.0)
    return resp


def _batch_responsibilities(
    pdf: pd.DataFrame,
    atoms: Callable[[tuple], _Atoms],
    cols: list[str],
    switch: Mapping[str, DataType],
    eps: float,
    max_steps: int,
) -> np.ndarray:
    """(B, m) responsibilities for one pandas batch.

    ``atoms`` flattens the constraint for a tuple of branch keys, one per
    attribute of ``switch`` (attribute -> its Spark type).
    """
    x = pdf[cols].to_numpy(dtype=np.float64)
    if not switch:
        return _greedy_group(atoms(()), x, eps, max_steps)
    out = np.zeros(x.shape)
    keys = [branch_keys(pdf[s], t) for s, t in switch.items()]
    for key, idx in pdf.groupby(keys, sort=False, dropna=False).indices.items():
        key = key if isinstance(key, tuple) else (key,)
        out[idx] = _greedy_group(atoms(key), x[idx], eps, max_steps)
    return out


def _flattener(
    constraint: Constraint, cols: list[str], switch_attrs: list[str], global_means: np.ndarray
) -> Callable[[tuple], _Atoms]:
    """``_flatten`` per tuple of branch keys, memoized: each distinct
    combination is flattened once per Spark task."""

    @cache
    def atoms(key: tuple) -> _Atoms:
        return _flatten(constraint, cols, dict(zip(switch_attrs, key)), global_means)

    return atoms


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
    switch = {s: df.schema[s].dataType for s in _switch_attrs(constraint)}
    means = _global_means(constraint, cols)
    needed = list(dict.fromkeys([*switch, *cols]))

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        atoms = _flattener(constraint, cols, list(switch), means)
        sums = np.zeros(len(cols))
        n = 0
        for pdf in batches:
            r = _batch_responsibilities(pdf, atoms, cols, switch, eps, max_steps)
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
