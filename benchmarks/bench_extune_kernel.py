"""In-process benchmark of ExTuNe's greedy search kernel; no Spark.

Times ``extune._batch_responsibilities`` on one LED batch at m = 24, the
width of the ``led_explain`` workload: the digit constraint of window 0
explains tuples of a window where LEDs 4 and 5 malfunction.  Each size also
checks the result against the one-search-at-a-time reference loop in
``tests/helpers.py``.  Nothing is written to ``benchmarks/results/``.

    pytest benchmarks/bench_extune_kernel.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.scoring import compile_constraint
from repro.datasets.led import IRRELEVANT_COLS, LED_COLS, led_window_pdf
from repro.explain import extune
from tests.helpers import greedy_group_reference, grouped_constraint

COLS = LED_COLS + IRRELEVANT_COLS


@pytest.mark.parametrize("n", [150, 2000])
def test_bench_extune_kernel(benchmark, monkeypatch, n):
    train = led_window_pdf(0, n=10_000, windows_per_phase=1, seed=0)
    constraint = grouped_constraint(train, "digit", COLS)
    batch = led_window_pdf(1, n=n, windows_per_phase=1, seed=0)
    table = compile_constraint(constraint, COLS)

    def run() -> np.ndarray:
        return extune._batch_responsibilities(table, batch, extune._EPS, 8)

    got = benchmark.pedantic(run, rounds=5, iterations=1)
    monkeypatch.setattr(extune, "_greedy_group", greedy_group_reference)
    np.testing.assert_array_equal(got, run())
