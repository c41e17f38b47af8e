"""Scaling benchmarks for the paper's efficiency claims (Section 4.3):

discovery is O(n m^2) + O(m^3) — *linear* in rows and *cubic* in attributes.
The paper reports "a few seconds even for datasets with 6 million rows";
our substrate is a local Spark session, so we verify the complexity shape
rather than the absolute wall-clock.

Every Gram pass here runs on the executors (the ``executors`` fixture):
25 K x 20 attributes (4 MB) would otherwise run on the driver and 100 K x 20
(16 MB) on the executors, and the row-scaling comparison would measure the
change of runner, not the rows.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pytest

from repro.core.discovery import discover_simple


def _wide_pdf(n: int, m: int, seed: int = 0) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    z = g.normal(size=(n, max(3, m // 4)))
    mix = g.normal(size=(max(3, m // 4), m))
    x = z @ mix + g.normal(0, 0.1, (n, m))
    return pd.DataFrame(x, columns=[f"c{i}" for i in range(m)])


@pytest.mark.parametrize("n_rows", [25_000, 100_000])
def test_bench_discovery_rows_scaling(spark, executors, benchmark, n_rows):
    df = spark.createDataFrame(_wide_pdf(n_rows, 20)).repartition(16).cache()
    df.count()
    result = benchmark.pedantic(lambda: discover_simple(df), rounds=1, iterations=2)
    assert len(result.conjuncts) >= 20
    df.unpersist()


@pytest.mark.parametrize("m_attrs", [10, 40])
def test_bench_discovery_attrs_scaling(spark, executors, benchmark, m_attrs):
    df = spark.createDataFrame(_wide_pdf(30_000, m_attrs)).repartition(16).cache()
    df.count()
    result = benchmark.pedantic(lambda: discover_simple(df), rounds=1, iterations=2)
    assert len(result.conjuncts) >= m_attrs
    df.unpersist()


def test_discovery_linear_in_rows(spark, executors):
    """Direct shape check: 4x the rows must cost well under ~10x the time
    (generously bounded; fixed Spark overhead dominates at this scale)."""
    times = {}
    for n in [25_000, 100_000]:
        df = spark.createDataFrame(_wide_pdf(n, 20)).repartition(16).cache()
        df.count()
        t0 = time.perf_counter()
        discover_simple(df)
        times[n] = time.perf_counter() - t0
        df.unpersist()
    print(f"\n[scaling] discovery time: {times}")
    assert times[100_000] < 10 * times[25_000] + 1.0
