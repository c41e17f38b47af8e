"""In-process benchmark of the numpy scoring kernel; no Spark.

Times ``AtomTable.violation``, the kernel behind ``score`` and
``average_violation``, over 10K-row batches (Spark's default Arrow batch
size) on four workload inputs: the airlines constraint (200K daytime
training rows, m = 12, a global part and ten carrier branches), the LED digit
constraint (10K rows of window 0, m = 24, ten digit branches), the same
LED constraint with ``digit`` as float64, which times matching a float
switch value to its branch, and a HAR constraint with a global part and two
switches (15K rows, m = 36, 15 person and 5 activity branches), the one
input whose tuples fall into many branch combinations (75).  Reports ns
per row per atom (``extra_info["ns_per_row_atom"]``; a row meets one branch
of each disjunctive part) and checks the scores against the per-atom
reference walk in ``tests/helpers.py``.  Nothing is written to
``benchmarks/results/``.

    pytest benchmarks/bench_scoring_kernel.py --benchmark-only
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import CompoundConstraint
from repro.core.scoring import compile_constraint
from repro.datasets.airlines import FEATURE_COLS, airlines_pdf
from repro.datasets.har import SENSOR_COLS, har_pdf
from repro.datasets.led import IRRELEVANT_COLS, LED_COLS, led_window_pdf
from tests.helpers import grouped_constraint, violation_reference

BATCH = 10_000


def _airlines():
    pdf = airlines_pdf(200_000, seed=0)
    return pdf, grouped_constraint(pdf, "carrier", FEATURE_COLS, include_global=True)


def _led():
    pdf = led_window_pdf(0, n=10_000, windows_per_phase=1, seed=0)
    return pdf, grouped_constraint(pdf, "digit", LED_COLS + IRRELEVANT_COLS)


def _har():
    pdf = har_pdf(n_per_cell=200, seed=0)
    person = grouped_constraint(pdf, "person", SENSOR_COLS, include_global=True)
    activity = grouped_constraint(pdf, "activity", SENSOR_COLS)
    return pdf, CompoundConstraint(parts=(*person.parts, *activity.parts))


def _led_float():
    pdf = led_window_pdf(0, n=10_000, windows_per_phase=1, seed=0).astype({"digit": float})
    return pdf, grouped_constraint(pdf, "digit", LED_COLS + IRRELEVANT_COLS)


@pytest.mark.parametrize(
    "inputs",
    [_airlines, _led, _led_float, _har],
    ids=["airlines_200k", "led_10k", "led_float_10k", "har_15k"],
)
def test_bench_scoring_kernel(benchmark, inputs):
    pdf, constraint = inputs()
    table = compile_constraint(constraint)
    batches = [pdf.iloc[s : s + BATCH] for s in range(0, len(pdf), BATCH)]

    def run() -> np.ndarray:
        return np.concatenate([table.violation(b) for b in batches])

    got = benchmark.pedantic(run, rounds=5, iterations=1)
    atoms = sum(np.mean([len(b.weights) for b in blocks]) for _, blocks in table.parts)
    best = benchmark.stats.stats.min if benchmark.stats else float("nan")
    benchmark.extra_info["ns_per_row_atom"] = 1e9 * best / (len(pdf) * atoms)
    np.testing.assert_allclose(got, violation_reference(constraint, pdf), rtol=0, atol=1e-12)
