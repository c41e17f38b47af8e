"""Synthetic EVL benchmark (substitute for [77], the 16 non-stationary
datasets used to evaluate drift detection under extreme verification latency).

Each dataset is a Gaussian mixture whose class/mode centers follow a
parametric path over normalized time t in [0, 1] (translation, rotation,
expansion, surround, gears — matching the published dataset names).  A
"window" is an i.i.d. sample at a fixed t.  The generator also exposes the
**ground-truth drift curve**: the mean displacement of each class's mode
centers from their t=0 positions, normalized to [0, 1] over the timeline —
the quantity Figure 8's curves are judged against.

Key structural property (drives the Figure 8 comparisons): the
rotation-symmetric datasets (4CR, 4CRE-V2, FG-2C-2D) keep the
*global* distribution of the reference window isotropic, so global methods
that discard principal components (PCA-SPLL with its 25 % cumulative-variance
rule) retain nothing and see no drift, while per-class (local) constraints
track the movement.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

#: mode path: t in [0,1] -> center (np.ndarray of the dataset's dimension)
Path = Callable[[float], np.ndarray]


def _line(a: tuple, b: tuple) -> Path:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return lambda t: a + t * (b - a)


def _fixed(a: tuple) -> Path:
    a = np.asarray(a, float)
    return lambda t: a.copy()


def _orbit(center: tuple, radius: float, angle0: float, turns: float) -> Path:
    c = np.asarray(center, float)

    def path(t: float) -> np.ndarray:
        th = angle0 + 2 * np.pi * turns * t
        return c + radius * np.array([np.cos(th), np.sin(th)])

    return path


def _orbit_ellipse(
    center: tuple, r0: float, r1: float, angle0: float, turns: float, aspect: float
) -> Path:
    """Orbit/expansion on an ellipse (y-radius = aspect * x-radius): keeps the
    reference window anisotropic so covariance PCA has a low-variance
    direction to retain."""
    c = np.asarray(center, float)

    def path(t: float) -> np.ndarray:
        th = angle0 + 2 * np.pi * turns * t
        r = r0 + t * (r1 - r0)
        return c + r * np.array([np.cos(th), aspect * np.sin(th)])

    return path


def _gear(center: tuple, radius: float, turns: float, phase: float = 0.0):
    """Three irregularly spaced teeth rotating around a slightly *eccentric*
    axis.  Pure in-place rotation inside a stationary bounding box is
    invisible to any 4-sigma linear envelope (including the paper's
    constraints); the eccentric wobble — a realistic feature of interlocking
    gears — moves the whole class enough per window to be observable while
    keeping the drift local (per class), which is what Figure 8 exercises."""
    c = np.asarray(center, float)

    def tooth(a: float) -> Path:
        def path(t: float) -> np.ndarray:
            th = phase + a + 2 * np.pi * turns * t
            wobble = 2.0 * np.array(
                [np.cos(phase + 2 * np.pi * turns * t), np.sin(phase + 2 * np.pi * turns * t)]
            )
            return c + wobble + radius * np.array([np.cos(th), 0.45 * np.sin(th)])

        return path

    return [tooth(a) for a in (0.0, 1.9, 3.9)]


def _specs() -> dict[str, dict]:
    """name -> {classes: {label: [mode paths]}, dim, std}."""
    s: dict[str, dict] = {}
    s["1CDT"] = {  # drift crosses the inter-class axis, not just along it
        "classes": {"c0": [_fixed((0, 0))], "c1": [_line((4, 4), (-2, 1))]},
    }
    s["2CDT"] = {
        "classes": {"c0": [_line((0, 0), (4, 4))], "c1": [_line((5, 0), (9, 4))]},
    }
    s["1CHT"] = {
        "classes": {"c0": [_fixed((0, 3))], "c1": [_line((4, 0), (-4, 0))]},
    }
    s["2CHT"] = {
        "classes": {"c0": [_line((0, 0), (8, 0))], "c1": [_line((0, 3), (-8, 3))]},
    }
    s["4CR"] = {  # 4 classes rotating (Figure 9): global isotropic, local drift
        "classes": {
            f"c{k}": [_orbit((0, 0), 3.0, k * np.pi / 2, 1.0)] for k in range(4)
        },
    }
    s["4CRE-V1"] = {  # rotation + expansion, expansion-dominant (elliptical
        # layout: the reference window is anisotropic, so PCA-SPLL works here)
        "classes": {
            f"c{k}": [_orbit_ellipse((0, 0), 1.5, 5.0, k * np.pi / 2, 0.25, 0.3)]
            for k in range(4)
        },
    }
    s["4CRE-V2"] = {  # fast rotation, constant radius: local drift only
        "classes": {
            f"c{k}": [_orbit((0, 0), 3.0, k * np.pi / 2, 2.0)] for k in range(4)
        },
    }
    s["5CVT"] = {
        "classes": {
            f"c{k}": [_line((2.5 * k, 0), (2.5 * k, 5))] for k in range(5)
        },
    }
    s["1CSurr"] = {
        "classes": {"c0": [_fixed((0, 0))], "c1": [_orbit((0, 0), 3.0, 0.0, 0.75)]},
    }
    s["4CE1CF"] = {  # 4 classes expanding + 1 class fixed at the center
        # (elliptical layout keeps the reference anisotropic for PCA-SPLL)
        "classes": {
            **{
                f"c{k}": [_orbit_ellipse((0, 0), 2.0, 6.0, k * np.pi / 2, 0.0, 0.45)]
                for k in range(4)
            },
            "c4": [_fixed((0, 0))],
        },
    }
    s["UG-2C-2D"] = {
        "classes": {"c0": [_line((0, 0), (4, 0))], "c1": [_line((4, 4), (0, 4))]},
    }
    s["MG-2C-2D"] = {  # multimodal: two modes per class
        "classes": {
            "c0": [_line((0, 0), (3, 0)), _line((2, 2), (5, 2))],
            "c1": [_line((5, 0), (2, 0)), _line((7, 2), (4, 2))],
        },
    }
    s["FG-2C-2D"] = {  # four gaussians swapping class positions: global static
        "classes": {
            "c0": [_line((0, 0), (0, 4)), _line((4, 4), (4, 0))],
            "c1": [_line((0, 4), (0, 0)), _line((4, 0), (4, 4))],
        },
    }
    s["UG-2C-3D"] = {
        "dim": 3,
        "classes": {
            "c0": [_line((0, 0, 0), (4, 2, 0))],
            "c1": [_line((4, 0, 2), (0, 2, 2))],
        },
    }
    s["UG-2C-5D"] = {
        "dim": 5,
        "classes": {
            "c0": [_line((0, 0, 0, 1, 0), (3, 3, 0, 1, 0))],
            "c1": [_line((3, 0, 1, 0, 1), (0, 3, 1, 0, 1))],
        },
    }
    s["GEARS-2C-2D"] = {  # two interlocking rotating gears (irregular teeth)
        "classes": {
            "c0": _gear((-2.5, 0), 2.0, 1.0),
            "c1": _gear((2.5, 0), 2.0, 1.0, phase=np.pi / 4),
        },
    }
    for spec in s.values():
        spec.setdefault("dim", 2)
        spec.setdefault("std", 0.5)
    return s


EVL_SPECS = _specs()
EVL_DATASETS = list(EVL_SPECS)


def _num_cols(dim: int) -> list[str]:
    return [f"d{i}" for i in range(dim)]


def evl_window_pdf(
    name: str, t: float, n_per_class: int = 300, seed: int = 0
) -> pd.DataFrame:
    """One window of dataset ``name`` sampled at normalized time ``t``."""
    spec = EVL_SPECS[name]
    dim, std = spec["dim"], spec["std"]
    g = np.random.default_rng((zlib_seed(name) + int(round(t * 1e6)) + seed * 7919) % (2**32))
    frames = []
    for label, modes in spec["classes"].items():
        per_mode = np.full(len(modes), n_per_class // len(modes))
        per_mode[: n_per_class - per_mode.sum()] += 1
        for path, n in zip(modes, per_mode):
            center = np.zeros(dim)
            c = np.asarray(path(t), float)
            center[: len(c)] = c
            x = g.normal(center, std, (int(n), dim))
            f = pd.DataFrame(x, columns=_num_cols(dim))
            f.insert(0, "label", label)
            frames.append(f)
    return pd.concat(frames, ignore_index=True)


def evl_windows_pdf(
    name: str, n_windows: int = 20, n_per_class: int = 300, seed: int = 0
) -> list[pd.DataFrame]:
    """All windows: index w sampled at t = w/(n_windows-1)."""
    return [
        evl_window_pdf(name, w / (n_windows - 1), n_per_class, seed=seed)
        for w in range(n_windows)
    ]


def ground_truth_drift(name: str, n_windows: int = 20) -> np.ndarray:
    """Normalized mean displacement of mode centers from their t=0 position."""
    spec = EVL_SPECS[name]
    ts = np.array([w / (n_windows - 1) for w in range(n_windows)])
    disp = np.zeros(n_windows)
    for modes in spec["classes"].values():
        for path in modes:
            origin = np.asarray(path(0.0), float)
            disp += np.array([np.linalg.norm(np.asarray(path(t), float) - origin) for t in ts])
    top = disp.max()
    return disp / top if top > 0 else disp


def zlib_seed(name: str) -> int:
    import zlib

    return zlib.crc32(name.encode())
