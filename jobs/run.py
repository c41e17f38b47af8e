"""Run one paper table and print it.

    python jobs/run.py <figure>            # or: spark-submit jobs/run.py <figure>

``<figure>`` names a ``repro.experiments`` module (``fig3_airlines``,
``fig10_explain``, ...); its ``run(spark)`` result is printed.  The local
SparkSession is configured like ``conftest.py``'s.
"""
from __future__ import annotations

import importlib
import os
import pkgutil
import sys

import pandas as pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro import experiments  # noqa: E402


def get_spark():
    os.environ.setdefault("SPARK_DRIVER_MEM", "8g")
    import conftest  # noqa: F401  (sets PYSPARK_SUBMIT_ARGS pre-JVM)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def emit(title: str, result) -> None:
    pd.set_option("display.width", 200)
    pd.set_option("display.max_columns", 50)
    pd.set_option("display.max_rows", 200)
    if isinstance(result, dict):
        for name, frame in result.items():
            print(f"\n=== {title} :: {name} ===")
            print(frame.to_string(index=False))
    else:
        print(f"\n=== {title} ===")
        print(result.to_string(index=False))


def main(argv: list[str]) -> None:
    figures = sorted(m.name for m in pkgutil.iter_modules(experiments.__path__))
    if len(argv) != 1 or argv[0] not in figures:
        raise SystemExit(f"usage: {sys.argv[0]} <figure>, one of: {', '.join(figures)}")
    module = importlib.import_module(f"repro.experiments.{argv[0]}")
    emit(argv[0], module.run(get_spark()))


if __name__ == "__main__":
    main(sys.argv[1:])
