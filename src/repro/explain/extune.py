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

Per-tuple responsibilities are averaged over the test set with
``scoring.mean_over_rows``, the reduction ``average_violation`` also uses.
The search walks a batch's branch combinations with ``AtomTable.groups``, as
the scorer does: the atoms a combination meets come stacked into one block,
built once per Spark task, so an intervention is a rank-1 update of the
projection values — no per-candidate re-evaluation of the whole constraint.
A tuple with a null or NaN feature never conforms (its atoms score eta = 1),
so its searches are capped.

All B x m searches of a branch group (violating tuple x first-fixed
attribute) run together as one array program: a round scores every
candidate fix of every unresolved search at once, takes the first best
candidate (ties go to the lowest attribute index), and keeps only the
searches still violating.  A search that has nothing left to fix while still
violating is capped at ``max_steps``, like one that runs out of steps, so a
tuple's responsibilities never depend on the other tuples of its batch.
"""
from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.constraints import Constraint
from repro.core.scoring import AtomTable, Block, compile_constraint, eta_sum, mean_over_rows

_EPS = 1e-9
#: Most candidate projection values (searches x m x K) one round of the
#: greedy search holds at once: 512 KiB per float64 temporary, which keeps a
#: round's temporaries in cache.
_MAX_CANDIDATES = 1 << 16


def _extra_fixes(
    a: Block, const: float, p: np.ndarray, d: np.ndarray, eps: float, max_steps: int
) -> np.ndarray:
    """How many more attributes each of R searches fixes, capped at ``max_steps``.

    ``p`` (R, K) holds each search's projection values and ``d`` (R, m) the
    change that fixing each attribute still makes (0: fixed, or already at
    its target).  One round scores every candidate of every unresolved
    search as an (R, m, K) array, applies each search's first best fix, and
    keeps only the searches still violating.
    """
    k = np.full(len(p), float(max_steps))
    unresolved = eta_sum(a, p) + const > eps
    k[~unresolved] = 0.0
    ids = np.flatnonzero(unresolved)
    p, d = p[ids], d[ids]
    wt = a.weights.T  # (m, K)
    for step in range(1, max_steps + 1):
        if not len(ids):
            break
        cand = d[:, :, None] * wt
        cand += p[:, None, :]
        v = eta_sum(a, cand) + const  # (R, m)
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
    a: Block, const: float, x: np.ndarray, eps: float, max_steps: int
) -> np.ndarray:
    """(B, m) responsibilities for a group of tuples ``x`` that meet the
    atoms ``a`` and score ``const`` on the parts with no block for them;
    ``a.col_means`` are the intervention targets.

    Runs one search per (violating tuple, first-fixed attribute), in chunks
    of at most ``_MAX_CANDIDATES`` candidate projection values per round.
    """
    b_n, m = x.shape
    resp = np.zeros((b_n, m))
    p0 = x @ a.weights.T  # (B, K)
    active = np.flatnonzero(eta_sum(a, p0) + const > eps)
    if not len(active):
        return resp
    tuples = np.repeat(active, m)
    first = np.tile(np.arange(m), len(active))
    delta = a.col_means[None, :] - x  # (B, m): effect of fixing each attr
    chunk = max(1, _MAX_CANDIDATES // max(1, m * len(a.weights)))
    for s in range(0, len(tuples), chunk):
        t, i = tuples[s : s + chunk], first[s : s + chunk]
        r = np.arange(len(t))
        d = delta[t]
        p = p0[t] + d[r, i][:, None] * a.weights[:, i].T  # step 0: fix attribute i
        d[r, i] = 0.0
        resp[t, i] = 1.0 / (_extra_fixes(a, const, p, d, eps, max_steps) + 1.0)
    return resp


def _batch_responsibilities(
    table: AtomTable, pdf: pd.DataFrame, eps: float, max_steps: int
) -> np.ndarray:
    """(B, m) responsibilities for one pandas batch: one greedy group per
    branch combination of ``table.groups``."""
    x = pdf[list(table.cols)].to_numpy(dtype=np.float64)
    out = np.zeros(x.shape)
    for rows, a, const in table.groups(pdf):
        out[rows] = _greedy_group(a, const, x[rows], eps, max_steps)
    return out


def responsibilities(
    df: DataFrame,
    constraint: Constraint,
    cols: Sequence[str],
    max_steps: int = 8,
) -> pd.Series:
    """Average per-attribute responsibility over the tuples of ``df``.

    Runs the greedy intervention search on every Spark partition
    (``mean_over_rows``); only (m+1)-length partial sums reach the driver.
    """
    table = compile_constraint(constraint, cols)
    if table.means is None:
        raise ValueError("cannot derive intervention targets: constraint records no col_means")
    per_row = partial(_batch_responsibilities, table, eps=_EPS, max_steps=max_steps)
    mean = mean_over_rows(df, table.columns, per_row, len(table.cols))
    return pd.Series(mean, index=list(table.cols), name="responsibility")
