"""Synthetic substitutes for the paper's evaluation datasets.

The container is offline, so every dataset of Section 6 (airlines, HAR, EVL,
LED, cardiovascular/mobile/house) is replaced by a deterministic generator
that plants the structure the corresponding experiment measures.  Each module
exposes pure ``*_pdf`` pandas builders (unit-testable without Spark); callers
pass them to ``spark.createDataFrame``.  See DESIGN.md §4 for the substitution
rationale per dataset.
"""
