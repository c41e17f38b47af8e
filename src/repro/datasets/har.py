"""Synthetic Human Activity Recognition dataset (substitute for [81]).

15 persons x 5 activities x 36 numerical sensor attributes
(2 sensors x 6 body locations x 3 axes), with the paper's Figure 6
fitness/BMI/gender metadata per person.

Planted structure:

* Each (person, activity) cell is a Gaussian latent-factor model:
  ``x = mu_pa + A_a z * s_a + eps`` with ``z ~ N(0, I_3)``; the mixing matrix
  ``A_a`` couples attributes so PCA finds low-variance linear combinations.
* *Sedentary* activities (lying/standing/sitting) are tight (small ``s_a``),
  *mobile* ones (walking/running) are wide and their 4-sigma envelope covers
  the sedentary means — reproducing Figure 7's asymmetry ("while a person
  walks, she also stands", but not vice versa).
* Person means scale with fitness/BMI/gender codes plus a person-specific
  offset, so persons with extreme metadata (p3 overweight, p8 obese+low
  fitness, p15 low fitness) sit far from the rest — Figure 6's high rows.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

SENSORS = ["acc", "gyr"]
LOCATIONS = ["head", "shin", "thigh", "upperarm", "waist", "chest"]
AXES = ["x", "y", "z"]
SENSOR_COLS = [f"{s}_{l}_{a}" for s in SENSORS for l in LOCATIONS for a in AXES]

SEDENTARY = ["lying", "standing", "sitting"]
MOBILE = ["walking", "running"]
ACTIVITIES = SEDENTARY + MOBILE

#: activity -> (mean intensity, within-cell noise scale)
ACTIVITY_PROFILE = {
    "lying": (0.20, 0.05),
    "standing": (0.50, 0.06),
    "sitting": (0.35, 0.05),
    "walking": (2.00, 0.60),
    "running": (4.00, 1.10),
}

#: paper Figure 6 metadata: person -> (fitness, bmi, gender)
PERSON_META = {
    "p01": ("Moderate", "Underweight", "Female"),
    "p02": ("Moderate", "Normal", "Male"),
    "p03": ("Moderate", "Overweight", "Male"),
    "p04": ("Moderate", "Normal", "Male"),
    "p05": ("Moderate", "Normal", "Male"),
    "p06": ("High", "Normal", "Female"),
    "p07": ("Moderate", "Overweight", "Male"),
    "p08": ("Low", "Obese", "Female"),
    "p09": ("High", "Overweight", "Male"),
    "p10": ("Moderate", "Obese", "Male"),
    "p11": ("Moderate", "Normal", "Female"),
    "p12": ("Moderate", "Normal", "Female"),
    "p13": ("Moderate", "Normal", "Female"),
    "p14": ("High", "Normal", "Male"),
    "p15": ("Low", "Normal", "Female"),
}
PERSONS = list(PERSON_META)

_FITNESS_CODE = {"Low": -1.0, "Moderate": 0.0, "High": 1.0}
_BMI_CODE = {"Underweight": -1.0, "Normal": 0.0, "Overweight": 1.0, "Obese": 2.0}
_GENDER_CODE = {"Female": -0.5, "Male": 0.5}

_M = len(SENSOR_COLS)
_LATENT = 3


def _stable_seed(*parts: object) -> int:
    """Process-independent seed (``hash()`` is randomized per process)."""
    return zlib.crc32("|".join(map(str, parts)).encode())


def _activity_pattern(activity: str) -> np.ndarray:
    """Deterministic per-activity base attribute pattern (unit scale)."""
    g = np.random.default_rng(_stable_seed("pattern", activity))
    return g.uniform(0.5, 1.5, _M)


def _activity_mixing(activity: str) -> np.ndarray:
    g = np.random.default_rng(_stable_seed("mixing", activity))
    a = g.normal(size=(_M, _LATENT))
    # row-normalize: each attribute receives ~1x the cell noise scale from
    # the latent factors (keeps per-attribute stds at the activity's scale)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def person_scale(person: str) -> float:
    fit, bmi, gender = PERSON_META[person]
    return 1.0 + 0.25 * _BMI_CODE[bmi] - 0.15 * _FITNESS_CODE[fit] + 0.1 * _GENDER_CODE[gender]


def _person_offset(person: str) -> np.ndarray:
    # small idiosyncratic offsets (~1 sigma of the sedentary noise): enough
    # for person identification across 36 attributes, small enough that the
    # Figure 6 inter-person violations are dominated by the metadata-driven
    # scale differences (p3/p8/p15 stand out instead of uniform saturation)
    g = np.random.default_rng(_stable_seed("offset", person))
    return g.normal(0.0, 0.06, _M)


def har_cell_pdf(person: str, activity: str, n: int, seed: int = 0) -> pd.DataFrame:
    """``n`` tuples for one (person, activity) cell."""
    g = np.random.default_rng(
        (_stable_seed("cell", person, activity) + seed * 1_000_003) % (2**32)
    )
    intensity, noise = ACTIVITY_PROFILE[activity]
    mu = intensity * _activity_pattern(activity) * person_scale(person) + _person_offset(person)
    z = g.normal(size=(n, _LATENT))
    x = (
        mu
        + z @ _activity_mixing(activity).T * noise
        + g.normal(0.0, noise * 0.15, (n, _M))
    )
    pdf = pd.DataFrame(x, columns=SENSOR_COLS)
    pdf.insert(0, "person", person)
    pdf.insert(1, "activity", activity)
    return pdf


def har_pdf(
    n_per_cell: int = 200,
    persons: list[str] | None = None,
    activities: list[str] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """The full (or filtered) HAR table: one row block per (person, activity)."""
    persons = persons or PERSONS
    activities = activities or ACTIVITIES
    return pd.concat(
        [har_cell_pdf(p, a, n_per_cell, seed=seed) for p in persons for a in activities],
        ignore_index=True,
    )
