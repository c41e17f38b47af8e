"""Experiment harnesses: one module per table of the paper's Section 6.

Every module exposes ``run(spark, ...) -> pandas.DataFrame`` (or a dict of
frames) printing-ready rows matching the paper's table, with the paper's
published numbers alongside where the paper prints them.
``jobs/run.py <module>`` runs one of them under ``spark-submit`` or plain
``python``; ``benchmarks/`` times them; EXPERIMENTS.md records
paper-vs-measured values.
"""
