"""In-process benchmark of the Gram pass's partition kernel; no Spark.

Times ``gram._partial_grams_fn`` — the kernel ``gram_pass`` runs on the
driver or inside ``mapInPandas`` — on batches laid out as Arrow hands them
to either runner (``tests.helpers.arrow_batches``: Fortran-ordered floats).
Two cases:

* one 200K-row partition split into 10K-row batches (Spark's default Arrow
  batch size), without switch attributes, at m = 14 and m = 36 numerical
  columns; each batch is reduced to its count, mean and centered scatter
  and merged into the partition's record;
* one batch of 200K airlines training rows, 12 features plus the
  ``carrier`` switch: what the driver reduces for ``discover`` on the
  benchmark's training split.

Reports ms per million rows (``extra_info["ms_per_mrow"]``) and checks the
global record against the direct numpy product in ``tests/helpers.py``.
Batch preparation is outside the timed region.  Nothing is written to
``benchmarks/results/``.

    pytest benchmarks/bench_gram_kernel.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.gram import _partial_grams_fn, _unpack
from repro.datasets.airlines import FEATURE_COLS, airlines_pdf
from tests.helpers import arrow_batches, augmented, frame_moments, kernel_moments, numpy_aug_gram

ROWS = 200_000


def _record_ms_per_mrow(benchmark) -> None:
    best = benchmark.stats.stats.min if benchmark.stats else float("nan")
    benchmark.extra_info["ms_per_mrow"] = 1e3 * best / (ROWS / 1e6)


@pytest.mark.parametrize("m", [14, 36])
def test_bench_gram_kernel(benchmark, m):
    cols = [f"x{i}" for i in range(m)]
    g = np.random.default_rng(m)
    pdf = pd.DataFrame(g.normal(g.uniform(-100, 100, m), 10.0, (ROWS, m)), columns=cols)
    batches = arrow_batches(pdf)
    assert batches[0][cols].to_numpy(dtype=np.float64, copy=False).flags.f_contiguous

    got = benchmark.pedantic(lambda: kernel_moments(batches, cols), rounds=5, iterations=1)
    _record_ms_per_mrow(benchmark)
    n, want = numpy_aug_gram(pdf, cols)
    assert got.n == n
    np.testing.assert_allclose(augmented(got), want, rtol=1e-9, atol=1e-6)


def test_bench_gram_kernel_airlines_one_batch(benchmark):
    pdf = airlines_pdf(ROWS, seed=0)[[*FEATURE_COLS, "carrier"]]
    (batch,) = arrow_batches(pdf, batch=ROWS)
    assert batch[FEATURE_COLS].to_numpy(dtype=np.float64, copy=False).flags.f_contiguous
    fn = _partial_grams_fn(FEATURE_COLS, {"carrier": FEATURE_COLS}, {"carrier": "string"}, 50)

    out = benchmark.pedantic(lambda: next(fn(iter([batch]))), rounds=5, iterations=1)
    _record_ms_per_mrow(benchmark)
    total = out[out["s"] == -1].iloc[0]
    n, mean, scatter = _unpack(total["n"], total["g"], len(FEATURE_COLS))
    want = frame_moments(pdf, FEATURE_COLS)
    assert n == want.n and (out["s"] == 0).sum() == pdf["carrier"].nunique()
    np.testing.assert_allclose(mean, want.mean, rtol=1e-12)
    np.testing.assert_allclose(scatter, want.scatter, rtol=1e-9)
