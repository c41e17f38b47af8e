"""In-process benchmark of the Gram pass's partition kernel; no Spark.

Times ``gram._partial_grams_fn`` — the kernel ``gram_pass`` runs inside
``mapInPandas`` — on one 200K-row partition split into 10K-row batches
(Spark's default Arrow batch size), without switch attributes, at m = 14
and m = 36 numerical columns.  Each batch is reduced to its count, mean and
centered scatter and merged into the partition's record.  Reports ms per
million rows (``extra_info["ms_per_mrow"]``) and checks the rebuilt
augmented Gram against the direct numpy product in ``tests/helpers.py``.
Nothing is written to ``benchmarks/results/``.

    pytest benchmarks/bench_gram_kernel.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from tests.helpers import augmented, kernel_moments, numpy_aug_gram

ROWS = 200_000


@pytest.mark.parametrize("m", [14, 36])
def test_bench_gram_kernel(benchmark, m):
    cols = [f"x{i}" for i in range(m)]
    g = np.random.default_rng(m)
    pdf = pd.DataFrame(g.normal(g.uniform(-100, 100, m), 10.0, (ROWS, m)), columns=cols)

    got = benchmark.pedantic(lambda: kernel_moments(pdf, cols), rounds=5, iterations=1)
    best = benchmark.stats.stats.min if benchmark.stats else float("nan")
    benchmark.extra_info["ms_per_mrow"] = 1e3 * best / (ROWS / 1e6)
    n, want = numpy_aug_gram(pdf, cols)
    assert got.n == n
    np.testing.assert_allclose(augmented(got), want, rtol=1e-9, atol=1e-6)
