"""Synthetic airlines dataset (substitute for [7], the 2008 flight data).

Planted structure (drives Figures 3 and 4):

* ``arr_time = (dep_time + duration + gap) mod 1440`` with
  ``gap ~ N(GAP_MEAN, GAP_STD)`` — so for *daytime* flights (no midnight
  wrap) the paper's Example-1 invariant holds:
  ``arr_time - dep_time - duration ~ gap`` (small variance); for *overnight*
  flights the same expression equals ``gap - 1440``.
* ``arr_delay = DELAY_PER_GAP_MIN * gap + Laplace(0, DELAY_NOISE_MAE)`` —
  linear in the features, so OLS trained on daytime data recovers
  coefficients ``(+c, -c, -c)`` on (arr_time, dep_time, duration) and
  inherits the invariant.  On overnight flights its prediction is off by
  ``DELAY_PER_GAP_MIN * 1440`` minutes, inflating MAE roughly 4x — the
  Figure 3 shape.
* ``duration ~ distance / CRUISE_MI_PER_MIN + TAXI_BASE + noise`` plants a
  second arithmetic invariant.

14 attributes as in the paper's dataset: 11 numerical, ``carrier``
categorical (the auto-selected disjunction attribute), and the target
``arr_delay``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

GAP_MEAN = 5.0
GAP_STD = 30.0  # wide enough that OLS pins the gap coefficient at our scale
DELAY_PER_GAP_MIN = 0.057  # delay signal per minute of gap; x1440 ~= 82 min
#                            of systematic error on overnight flights, which
#                            reproduces the paper's ~4x MAE inflation
DELAY_NOISE_MAE = 19.0  # Laplace scale = MAE of the unpredictable part
CRUISE_MI_PER_MIN = 8.0
TAXI_BASE = 25.0

CARRIERS = ["AA", "UA", "DL", "WN", "US", "NW", "CO", "B6", "AS", "F9"]

FEATURE_COLS = [
    "month",
    "day_of_week",
    "dep_time",
    "arr_time",
    "duration",
    "distance",
    "flight_num",
    "origin_id",
    "dest_id",
    "taxi_in",
    "taxi_out",
    "air_time",
]
TARGET = "arr_delay"


def airlines_pdf(n: int = 10_000, *, overnight_frac: float = 0.0, seed: int = 0) -> pd.DataFrame:
    """Generate ``n`` flights; a fraction departs late enough to land after
    midnight (``overnight_frac``), the rest are daytime flights.

    Overnight flights are *constructed* to wrap: departure in the late
    evening with a duration that crosses midnight, mirroring the paper's
    split (the real dataset does not report arrival date).
    """
    g = np.random.default_rng(seed)
    n_over = int(round(n * overnight_frac))
    n_day = n - n_over

    distance = np.concatenate(
        [
            g.uniform(200, 2500, n_day),
            g.uniform(800, 2500, n_over),  # long enough to cross midnight
        ]
    )
    duration = distance / CRUISE_MI_PER_MIN + TAXI_BASE + g.normal(0, 5, n)
    duration = np.maximum(duration, 30.0).round()

    # Daytime: departure early enough that dep + duration + gap stays safely
    # before midnight (no wrap, even with a ~6-sigma gap).
    day_ub = 1440.0 - duration[:n_day] - 7 * GAP_STD
    dep_day = 6 * 60 + g.random(n_day) * (day_ub - 6 * 60)
    # Overnight: depart late enough that the flight always crosses midnight.
    dep_over = 1440 - duration[n_day:] + g.uniform(7 * GAP_STD, 7 * GAP_STD + 120, n_over)
    dep_over = np.clip(dep_over, 0, 1439)
    dep_time = np.concatenate([dep_day, dep_over]).round()

    gap = g.normal(GAP_MEAN, GAP_STD, n)
    # actual elapsed time (duration + gap) must stay positive; the clipped
    # gap is used consistently for both arr_time and delay, so the planted
    # linear relationship delay ~ gap holds exactly
    gap = np.maximum(gap, -(duration - 15.0))
    arr_raw = dep_time + duration + gap
    arr_time = np.mod(arr_raw, 1440.0).round()

    delay = DELAY_PER_GAP_MIN * gap + g.laplace(0.0, DELAY_NOISE_MAE, n)

    pdf = pd.DataFrame(
        {
            "month": g.integers(1, 13, n).astype("float64"),
            "day_of_week": g.integers(1, 8, n).astype("float64"),
            "dep_time": dep_time,
            "arr_time": arr_time,
            "duration": duration,
            "distance": distance.round(1),
            "carrier": g.choice(CARRIERS, n),
            "flight_num": g.integers(1, 8000, n).astype("float64"),
            "origin_id": g.integers(1, 300, n).astype("float64"),
            "dest_id": g.integers(1, 300, n).astype("float64"),
            "taxi_in": np.maximum(g.normal(6, 2, n), 1).round(1),
            "taxi_out": np.maximum(g.normal(16, 5, n), 2).round(1),
            "air_time": np.maximum(duration - 22 + g.normal(0, 3, n), 10).round(),
            TARGET: delay.round(2),
        }
    )
    pdf["is_overnight"] = np.concatenate(
        [np.zeros(n_day, dtype=bool), np.ones(n_over, dtype=bool)]
    )
    return pdf.sample(frac=1.0, random_state=seed).reset_index(drop=True)


def splits_pdf(
    n_train: int = 20_000,
    n_test: int = 4_000,
    *,
    mixed_overnight_frac: float = 0.32,
    seed: int = 0,
) -> dict[str, pd.DataFrame]:
    """The paper's four splits: train (daytime), Daytime, Overnight, Mixed.

    ``mixed_overnight_frac=0.32`` matches the paper's Mixed split, whose MAE
    interpolates Daytime->Overnight at ~32%.
    """
    return {
        "train": airlines_pdf(n_train, overnight_frac=0.0, seed=seed),
        "daytime": airlines_pdf(n_test, overnight_frac=0.0, seed=seed + 1),
        "overnight": airlines_pdf(n_test, overnight_frac=1.0, seed=seed + 2),
        "mixed": airlines_pdf(n_test, overnight_frac=mixed_overnight_frac, seed=seed + 3),
    }
