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
distributed via ``mapInPandas`` on the constraint's ``AtomTable``
(``core.scoring``): the blocks a branch combination meets are concatenated
once per Spark task, so an intervention is a rank-1 update of the projection
values — no per-candidate re-evaluation of the whole constraint.  A tuple
with a null or NaN feature never conforms (its atoms score eta = 1), so its
searches are capped.

All B x m searches of a branch group (violating tuple x first-fixed
attribute) run together as one array program: a round scores every
candidate fix of every unresolved search at once, takes the first best
candidate (ties go to the lowest attribute index), and keeps only the
searches still violating.  A search that has nothing left to fix while still
violating is capped at ``max_steps``, like one that runs out of steps, so a
tuple's responsibilities never depend on the other tuples of its batch.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.constraints import Constraint
from repro.core.scoring import AtomTable, Block, Switch, compile_constraint, eta_sum

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
    pdf: pd.DataFrame,
    group: Callable[[tuple], tuple[Block, float]],
    cols: list[str],
    switches: Sequence[Switch],
    eps: float,
    max_steps: int,
) -> np.ndarray:
    """(B, m) responsibilities for one pandas batch.

    ``group`` gives the atoms and constant of a tuple of branch indices, one
    per switch in ``switches`` (-1: no branch).
    """
    x = pdf[cols].to_numpy(dtype=np.float64)
    if not switches:
        return _greedy_group(*group(()), x, eps, max_steps)
    out = np.zeros(x.shape)
    codes = [sw.branch(pdf) for sw in switches]
    for key, idx in pdf.groupby(codes, sort=False).indices.items():
        key = key if isinstance(key, tuple) else (key,)
        out[idx] = _greedy_group(*group(key), x[idx], eps, max_steps)
    return out


def _grouper(table: AtomTable, means: np.ndarray) -> Callable[[tuple], tuple[Block, float]]:
    """The blocks that tuples with branch indices ``key`` (one per switch)
    meet, concatenated, and the weight of the parts with no block for them;
    memoized, so each key tuple is built once per Spark task.

    The intervention targets are the first matched branch's means, else the
    simple part's, else ``means``.
    """

    @cache
    def group(key: tuple) -> tuple[Block, float]:
        branches = iter(key)
        blocks, const, branch_means, simple_means = [], 0.0, [], []
        for sw, part in table.parts:
            j = 0 if sw is None else int(next(branches))
            if j < 0:
                const += table.weight  # unseen or null value: permanently violated part
                continue
            b = part[j]
            blocks.append(b)
            (simple_means if sw is None else branch_means).append(b.col_means)
        fix = next(m for m in [*branch_means, *simple_means, means] if m is not None)
        empty = Block(np.zeros((0, len(table.cols))), *[np.zeros(0)] * 4)
        fields = ("weights", "lb", "ub", "alpha", "coef")
        stacked = {f: np.concatenate([getattr(b, f) for b in [empty, *blocks]]) for f in fields}
        return Block(**stacked, col_means=fix), const

    return group


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
    table = compile_constraint(constraint, cols)
    recorded = [b.col_means for _, p in table.parts for b in p if b.col_means is not None]
    if not recorded:
        raise ValueError("cannot derive intervention targets: constraint records no col_means")
    needed = list(dict.fromkeys([*(sw.attr for sw in table.switches), *cols]))

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        group = _grouper(table, recorded[0])
        sums = np.zeros(len(cols))
        n = 0
        for pdf in batches:
            r = _batch_responsibilities(pdf, group, cols, table.switches, eps, max_steps)
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
