"""Spans around the calls into each layer of ``repro``, recorded from outside.

The tracer replaces each public layer function by a wrapper *at the module
where it is looked up*: ``repro.core.discovery.augmented_gram`` and
``repro.ml.linreg.augmented_gram`` are wrapped separately, so every Gram pass
is attributed to the layer that caused it.  Each span records its name, start,
end and parent, and runs under a Spark job group of its own; the ids of the
jobs launched in that group are read from ``statusTracker`` when the span
closes (only ``spark.ui.retainedJobs`` jobs stay queryable, so they cannot be
read at the end of a run), and the parent's job group is restored.

Spans are kept in memory; ``write`` saves them when the run ends.  Nothing in
``src/`` is modified: the wrappers are installed by ``installed()`` and
removed when it exits.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

from repro.core.constraints import CompoundConstraint, DisjunctiveConstraint, SimpleConstraint

#: (module where the function is looked up, attribute, span name).
WRAPPED = (
    ("repro.core.discovery", "discover", "core.discovery"),
    ("repro.core.discovery", "discover_simple", "core.discovery"),
    ("repro.core.discovery", "discover_disjunctive", "core.discovery"),
    ("repro.core.discovery", "eligible_partition_attrs", "core.discovery.partition_attrs"),
    ("repro.core.discovery", "augmented_gram", "core.gram"),
    ("repro.core.discovery", "grouped_augmented_gram", "core.gram.grouped"),
    ("repro.core.discovery", "derive_projections", "core.projections"),
    ("repro.core.scoring", "average_violation", "core.scoring.pandas"),
    ("repro.ml.linreg", "fit_ols", "ml.linreg.fit"),
    ("repro.ml.linreg", "mae", "ml.linreg.mae"),
    ("repro.ml.linreg", "augmented_gram", "core.gram"),
    ("repro.drift.pca_spll", "fit_pca_spll", "drift.pca_spll"),
    ("repro.drift.pca_spll", "spll_drift", "drift.pca_spll"),
    ("repro.drift.pca_spll", "augmented_gram", "core.gram"),
    ("repro.drift.cd", "fit_cd", "drift.cd"),
    ("repro.drift.cd", "cd_divergences", "drift.cd"),
    ("repro.drift.cd", "augmented_gram", "core.gram"),
    ("repro.explain.extune", "responsibilities", "explain.extune"),
)

#: Span names whose wrapped call takes (df, constraint, ...): the span records
#: the rows of ``df`` and the atoms the constraint evaluates per row.
_SCORED = frozenset({"core.scoring.pandas", "explain.extune"})

JOB = "job"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    group: str
    end: float = 0.0
    jobs: list[int] = field(default_factory=list)
    rows: int = 0
    atoms: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the calls made while its wrappers are installed."""

    def __init__(self, sc, rows_of: dict[int, int]) -> None:
        self.sc = sc
        self.rows_of = rows_of  # id(DataFrame) -> row count, filled in set-up
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0, atoms: float = 0.0) -> Iterator[Span]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name=name, start=0.0, parent=parent, group=f"perfbench-span-{idx}",
                 rows=rows, atoms=atoms)
        self.spans.append(s)
        self._stack.append(idx)
        self.sc.setJobGroup(s.group, name)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.jobs = sorted(self.sc.statusTracker().getJobIdsForGroup(s.group))
            self._stack.pop()
            if parent is not None:
                self.sc.setJobGroup(self.spans[parent].group, self.spans[parent].name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rows = atoms = 0
            if name in _SCORED:
                rows = self.rows_of.get(id(args[0]), 0)
                atoms = atoms_per_row(args[1])
            with self.span(name, rows=rows, atoms=atoms) as s:
                out = fn(*args, **kwargs)
                if name == "core.gram":
                    s.rows = out.n
                elif name == "core.gram.grouped":
                    s.rows = sum(g.n for g in out.values())
                return out

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every function in ``WRAPPED`` for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def atoms_per_row(constraint) -> float:
    """Bounded-projection atoms evaluated per scored row.

    A disjunction evaluates one branch per row; the mean branch size stands
    in for the matched one (the branches of one disjunction have equal size
    unless a partition was too small to learn from).
    """
    if isinstance(constraint, SimpleConstraint):
        return float(len(constraint.conjuncts))
    if isinstance(constraint, DisjunctiveConstraint):
        sizes = [atoms_per_row(b) for b in constraint.branches.values()]
        return statistics.fmean(sizes) if sizes else 0.0
    if isinstance(constraint, CompoundConstraint):
        return sum(atoms_per_row(p) for p in constraint.parts)
    raise TypeError(f"not a constraint: {type(constraint)!r}")


def _self_time(spans: list[Span], i: int, children: dict[int, list[int]]) -> float:
    # children of one span run one after another on the driver thread, so
    # the time they cover is the sum of their durations
    return spans[i].duration - sum(spans[c].duration for c in children.get(i, ()))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics, per traced job, from the spans of the traced jobs.

    Counts and times are divided by the number of traced jobs; a layer that
    a workload never calls reports 0 for every metric.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    jobs = [i for i, s in enumerate(spans) if s.name == JOB]
    n_jobs = max(len(jobs), 1)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def self_total(name: str) -> float:
        return sum(_self_time(spans, i, children) for i, s in enumerate(spans) if s.name == name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def spark_jobs(name: str) -> int:
        return sum(len(s.jobs) for s in named(name))

    def work(name: str) -> float:
        return sum(s.rows * s.atoms for s in named(name))

    def subtree_jobs(i: int) -> int:
        return len(spans[i].jobs) + sum(subtree_jobs(c) for c in children.get(i, ()))

    gram_rows = sum(s.rows for s in named("core.gram"))
    grouped_rows = sum(s.rows for s in named("core.gram.grouped"))
    pandas_rows = sum(s.rows for s in named("core.scoring.pandas"))
    catalyst = named("core.scoring.catalyst")
    tuples = sum(s.rows for s in named("explain.extune"))
    job_wall = sum(spans[i].duration for i in jobs)
    covered = sum(spans[c].duration for i in jobs for c in children.get(i, ()))
    return {
        "core.gram.ms_per_mrow": 1e9 * ratio(total("core.gram"), gram_rows),
        "core.gram.calls": len(named("core.gram")) / n_jobs,
        "core.gram.rows": gram_rows / n_jobs,
        "core.gram.spark_jobs": spark_jobs("core.gram") / n_jobs,
        "core.gram.grouped.ms_per_mrow": 1e9 * ratio(total("core.gram.grouped"), grouped_rows),
        "core.discovery.partition_attrs_s": total("core.discovery.partition_attrs") / n_jobs,
        "core.discovery.self_s": self_total("core.discovery") / n_jobs,
        "core.projections.calls": len(named("core.projections")) / n_jobs,
        "core.projections.ms_per_call": 1e3 * ratio(
            total("core.projections"), len(named("core.projections"))
        ),
        "core.scoring.pandas.ns_per_row_atom": 1e9 * ratio(
            total("core.scoring.pandas"), work("core.scoring.pandas")
        ),
        "core.scoring.pandas.rows": pandas_rows / n_jobs,
        "core.scoring.pandas.atoms_per_row": ratio(work("core.scoring.pandas"), pandas_rows),
        "core.scoring.pandas.spark_jobs": spark_jobs("core.scoring.pandas") / n_jobs,
        "core.scoring.catalyst.s_per_query": ratio(total("core.scoring.catalyst"), len(catalyst)),
        "core.scoring.catalyst.ns_per_row_atom": 1e9 * ratio(
            total("core.scoring.catalyst"), work("core.scoring.catalyst")
        ),
        "ml.linreg.fit_s": total("ml.linreg.fit") / n_jobs,
        "ml.linreg.mae_s": total("ml.linreg.mae") / n_jobs,
        "drift.pca_spll.self_s": self_total("drift.pca_spll") / n_jobs,
        "drift.cd.self_s": self_total("drift.cd") / n_jobs,
        "spark.jobs_per_job": sum(subtree_jobs(i) for i in jobs) / n_jobs,
        "explain.extune.us_per_tuple": 1e6 * ratio(total("explain.extune"), tuples),
        "explain.extune.tuples": tuples / n_jobs,
        "explain.extune.spark_jobs": spark_jobs("explain.extune") / n_jobs,
        "trace.coverage_frac": ratio(covered, job_wall),
    }
