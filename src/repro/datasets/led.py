"""Synthetic LED dataset (substitute for the MOA LED benchmark [10]).

Schema: ``digit`` (0-9, the categorical switch attribute), 7 binary segment
attributes ``led_1 .. led_7`` encoding the digit on a seven-segment display,
and 17 irrelevant binary attributes ``irr_1 .. irr_17``.  Every relevant bit
is flipped with probability ``noise`` (the classic benchmark uses ~10 %; we
default to 5 %).

Concept drift (Figure 10d): every ``windows_per_phase`` windows a new set of
LEDs *malfunctions* — their bit is inverted — following the paper's
narrative ("LED 4 and LED 5 start malfunctioning; then LED 1 and LED 3...").
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: seven-segment encoding: digit -> segments 1..7 (a,b,c,d,e,f,g)
SEGMENTS = {
    0: (1, 1, 1, 1, 1, 1, 0),
    1: (0, 1, 1, 0, 0, 0, 0),
    2: (1, 1, 0, 1, 1, 0, 1),
    3: (1, 1, 1, 1, 0, 0, 1),
    4: (0, 1, 1, 0, 0, 1, 1),
    5: (1, 0, 1, 1, 0, 1, 1),
    6: (1, 0, 1, 1, 1, 1, 1),
    7: (1, 1, 1, 0, 0, 0, 0),
    8: (1, 1, 1, 1, 1, 1, 1),
    9: (1, 1, 1, 1, 0, 1, 1),
}
LED_COLS = [f"led_{i}" for i in range(1, 8)]
IRRELEVANT_COLS = [f"irr_{i}" for i in range(1, 18)]

#: Figure 10d's malfunction schedule: one entry per phase (5 windows each).
MALFUNCTION_PHASES: list[tuple[int, ...]] = [(), (4, 5), (1, 3), (2, 7)]


def led_window_pdf(
    window: int,
    n: int = 5000,
    noise: float = 0.05,
    windows_per_phase: int = 5,
    seed: int = 0,
) -> pd.DataFrame:
    """One window; the malfunction set is the phase's entry (inverted bits)."""
    g = np.random.default_rng(seed * 1_000_003 + window)
    digits = g.integers(0, 10, n)
    seg = np.array([SEGMENTS[d] for d in digits], dtype=np.float64)
    flips = g.random(seg.shape) < noise
    seg = np.where(flips, 1 - seg, seg)
    phase = min(window // windows_per_phase, len(MALFUNCTION_PHASES) - 1)
    for led in MALFUNCTION_PHASES[phase]:
        seg[:, led - 1] = 1 - seg[:, led - 1]
    pdf = pd.DataFrame(seg, columns=LED_COLS)
    pdf.insert(0, "digit", digits.astype("int64"))
    irr = (g.random((n, len(IRRELEVANT_COLS))) < 0.5).astype(np.float64)
    for i, c in enumerate(IRRELEVANT_COLS):
        pdf[c] = irr[:, i]
    return pdf


def led_windows_pdf(
    n_windows: int = 20, n: int = 5000, noise: float = 0.05, seed: int = 0
) -> list[pd.DataFrame]:
    return [led_window_pdf(w, n=n, noise=noise, seed=seed) for w in range(n_windows)]


def malfunctioning_leds(window: int, windows_per_phase: int = 5) -> tuple[int, ...]:
    """The planted ground truth for a window (for assertions in tests)."""
    phase = min(window // windows_per_phase, len(MALFUNCTION_PHASES) - 1)
    return MALFUNCTION_PHASES[phase]
