"""The benchmark's workloads: inputs from a seed, one job each, output checks.

A workload generates its inputs with the repository's own generators (the
seed goes to them and nowhere else), caches them in Spark, and then runs its
*job* — a sequence of public API calls ending in a checked result — as many
times as the run allows.  Each job calls the layers through their modules
(``discovery.discover``, not a name imported from it) so that the tracer's
wrappers see every call.

Why these workloads (see README.md for the layer each one stresses):

* ``airlines_tml`` — Figures 3/4: Gram passes and the scoring kernel over
  the largest inputs; at this scale per-row work is about a third of a job,
  the fixed cost of each Spark pass the rest.  Once per traced run, the only
  Catalyst scoring query, whose generated code fails to compile and costs
  10-20 s per query.
* ``evl_drift`` — Figure 8: tiny windows, so the time goes to 38 Spark
  jobs and the driver loop; kernel speed-ups should not show here.
* ``led_explain`` — Figure 10d: ExTuNe's greedy search in the Python
  workers, which grows with tuples x m^2.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import functions as Fn

from repro import tml
from repro.core import discovery, scoring
from repro.datasets.airlines import FEATURE_COLS, TARGET, splits_pdf
from repro.datasets.evl import EVL_SPECS, evl_windows_pdf, ground_truth_drift
from repro.datasets.led import (
    IRRELEVANT_COLS,
    LED_COLS,
    MALFUNCTION_PHASES,
    led_window_pdf,
    malfunctioning_leds,
)
from repro.drift import cd, pca_spll
from repro.experiments.fig8_evl import PAPER_SPLL_FAILS, _corr, _normalize
from repro.explain import extune
from repro.ml import linreg

from spans import atoms_per_row

#: ROADMAP anchor: a training split scores about 0 against its own constraint.
TRAIN_VIOLATION_MAX = 1e-3


class CheckFailed(Exception):
    """A job's output failed one of the benchmark's checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Phases:
    """Wall time of the timed phases of one job, with the work each did."""

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)

    @contextlib.contextmanager
    def timed(self, name: str, units: int = 0) -> Iterator[None]:
        t0 = time.perf_counter()
        yield
        self.samples[name].append((time.perf_counter() - t0, units))

    def seconds(self, name: str) -> list[float]:
        return [s for s, _ in self.samples[name]]

    def rate(self, name: str) -> float | None:
        """Units per second summed over the phase's samples, if any ran."""
        secs = sum(s for s, _ in self.samples[name])
        return sum(u for _, u in self.samples[name]) / secs if secs else None


class Workload:
    """Base class: inputs live on the instance between set-up and jobs."""

    name = ""

    def __init__(self, scale: float) -> None:
        self.scale = scale
        self.rows_of: dict[int, int] = {}  # id(cached DataFrame) -> rows

    def sizes(self) -> dict[str, int]:
        raise NotImplementedError

    def generate(self, seed: int):
        """Pandas inputs for ``seed``."""
        raise NotImplementedError

    def materialize(self, spark, pdfs) -> None:
        """Create, cache and count the Spark inputs."""
        raise NotImplementedError

    def job(self, ph: Phases) -> None:
        """One job from cached input to a checked result."""
        raise NotImplementedError

    def after_jobs(self, ph: Phases, tracer) -> None:
        """Once per traced run, after the jobs: work too costly to repeat in
        every job, and checks that need a job's result."""

    def _cache(self, spark, pdf: pd.DataFrame):
        df = spark.createDataFrame(pdf).cache()
        self.rows_of[id(df)] = df.count()
        return df

    def _n(self, base: int, floor: int) -> int:
        return max(floor, int(round(base * self.scale)))


class AirlinesTML(Workload):
    name = "airlines_tml"
    SPLITS = ("train", "daytime", "overnight", "mixed")

    def sizes(self) -> dict[str, int]:
        return {"n_train": self._n(200_000, 5_000), "n_test": self._n(50_000, 2_000)}

    def generate(self, seed: int):
        return splits_pdf(**self.sizes(), seed=seed)

    def materialize(self, spark, pdfs) -> None:
        self.dfs = {k: self._cache(spark, v.drop(columns=["is_overnight"])) for k, v in pdfs.items()}

    def job(self, ph: Phases) -> None:
        train = self.dfs["train"]
        with ph.timed("discover"):
            constraint = discovery.discover(train, cols=FEATURE_COLS)
        model = linreg.fit_ols(train, FEATURE_COLS, TARGET)
        violation, error = {}, {}
        for name in self.SPLITS:
            df = self.dfs[name]
            with ph.timed("score", self.rows_of[id(df)]):
                violation[name] = scoring.average_violation(df, constraint)
            error[name] = linreg.mae(df, model, TARGET)
        self.constraint = constraint
        check(
            violation["train"] <= TRAIN_VIOLATION_MAX,
            f"training split scores {violation['train']:.3g} against its own constraint",
        )
        check(
            error["overnight"] > 2 * error["daytime"],
            f"Fig 3 MAE ratio: overnight {error['overnight']:.2f} vs daytime {error['daytime']:.2f}",
        )

    def after_jobs(self, ph: Phases, tracer) -> None:
        # The TML flag query is the only Catalyst scoring path.  Its generated
        # code fails to compile, so it costs 10-20 s whatever the row count;
        # it must give every row of the mixed split the same verdict as the
        # pandas kernel.
        mixed = self.dfs["mixed"]
        rows = self.rows_of[id(mixed)]
        with ph.timed("flag"), tracer.span(
            "core.scoring.catalyst", rows=rows, atoms=atoms_per_row(self.constraint)
        ):
            flagged = tml.flag_non_conforming(mixed, self.constraint).where("non_conforming").count()
        check(0 < flagged < rows, f"TML flagged {flagged} of {rows} mixed rows")
        scored = scoring.score(mixed, self.constraint, col_name="_v")
        by_pandas = scored.where(Fn.col("_v") > 0).count()
        check(
            by_pandas == flagged,
            f"engines disagree on the mixed split: Catalyst flags {flagged}, pandas {by_pandas}",
        )


class EVLDrift(Workload):
    name = "evl_drift"
    #: Figure 9's rotating classes: DISYNTH tracks the local drift, while
    #: PCA-SPLL keeps no component and reports none (the paper's failure case)
    DATASET = "4CR"
    N_WINDOWS = 6
    MIN_CORR = 0.6

    def sizes(self) -> dict[str, int]:
        return {"n_windows": self.N_WINDOWS, "n_per_class": self._n(400, 100)}

    def generate(self, seed: int):
        return evl_windows_pdf(self.DATASET, seed=seed, **self.sizes())

    def materialize(self, spark, pdfs) -> None:
        self.windows = [self._cache(spark, w) for w in pdfs]

    def job(self, ph: Phases) -> None:
        dfs = self.windows
        cols = [f"d{i}" for i in range(EVL_SPECS[self.DATASET]["dim"])]
        with ph.timed("discover"):
            constraint = discovery.discover(dfs[0], cols=cols, partition_attrs=["label"])
        spll = pca_spll.fit_pca_spll(dfs[0], cols)
        cd_model = cd.fit_cd(dfs[0], cols, k=min(2, len(cols)))
        disynth, spll_curve, divergences = [], [], []
        for df in dfs:
            with ph.timed("score", self.rows_of[id(df)]):
                disynth.append(scoring.average_violation(df, constraint))
            spll_curve.append(pca_spll.spll_drift(df, spll))
            d = cd.cd_divergences(df, cd_model)
            divergences += [d["mkl"], d["area"]]
        check(
            disynth[0] <= TRAIN_VIOLATION_MAX,
            f"window 0 scores {disynth[0]:.3g} against its own constraint",
        )
        gt = ground_truth_drift(self.DATASET, n_windows=len(dfs))
        corr = _corr(_normalize(np.asarray(disynth)), gt)
        check(corr > self.MIN_CORR, f"DISYNTH correlation with the ground truth {corr:.3f}")
        check(
            self.DATASET not in PAPER_SPLL_FAILS or not any(spll_curve),
            "PCA-SPLL curve is not all zeros",
        )
        check(all(np.isfinite(divergences)), "CD divergences are not finite")


class LEDExplain(Workload):
    name = "led_explain"
    #: one window per phase of Figure 10d's malfunction schedule
    WINDOWS_PER_PHASE = 1
    N_WINDOWS = WINDOWS_PER_PHASE * len(MALFUNCTION_PHASES)
    COLS = LED_COLS + IRRELEVANT_COLS
    #: Fig 10d reports no culprit when the top responsibility is this small
    MIN_TOP = 0.15

    def sizes(self) -> dict[str, int]:
        return {
            "n_windows": self.N_WINDOWS,
            "n_window": self._n(10_000, 1_000),
            "n_explain": self._n(150, 100),
        }

    def generate(self, seed: int):
        s = self.sizes()
        return [
            led_window_pdf(w, n=s["n_window"], windows_per_phase=self.WINDOWS_PER_PHASE, seed=seed)
            for w in range(s["n_windows"])
        ]

    def materialize(self, spark, pdfs) -> None:
        n = self.sizes()["n_explain"]
        self.train = self._cache(spark, pdfs[0])
        self.explained = [self._cache(spark, w.head(n)) for w in pdfs]

    def job(self, ph: Phases) -> None:
        with ph.timed("discover"):
            constraint = discovery.discover(
                self.train, cols=self.COLS, partition_attrs=["digit"], include_global=False
            )
        for w, df in enumerate(self.explained):
            with ph.timed("explain", self.rows_of[id(df)]):
                resp = extune.responsibilities(df, constraint, self.COLS)
            planted = malfunctioning_leds(w, self.WINDOWS_PER_PHASE)
            if planted:
                top = resp.sort_values(ascending=False)
                found = sorted(top.index[:2])
                want = sorted(f"led_{i}" for i in planted)
                check(
                    top.iloc[0] > self.MIN_TOP and found == want,
                    f"window {w}: top-2 {found}, planted {want}",
                )
        self.constraint = constraint

    def after_jobs(self, ph: Phases, tracer) -> None:
        v = scoring.average_violation(self.train, self.constraint)
        check(
            v <= TRAIN_VIOLATION_MAX,
            f"window 0 scores {v:.3g} against its own constraint",
        )


WORKLOADS = {w.name: w for w in (AirlinesTML, EVLDrift, LEDExplain)}
