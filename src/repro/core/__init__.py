"""Core of the paper's contribution: conformance-constraint discovery.

Pipeline: ``gram`` (one-pass distributed second moments, global and grouped) -> ``projections``
(Algorithm 1: eigenvectors of the augmented Gram matrix) -> ``constraints``
(the language of Section 3.1) -> ``discovery`` (simple / disjunctive /
compound synthesis, Section 4) -> ``scoring`` (quantitative semantics of
Section 3.2: a constraint compiled once into an atom table, from which the
numpy kernel, the DuckDB SQL text and the Catalyst column derive).
"""
from repro.core.constraints import (
    BoundedProjection,
    CompoundConstraint,
    DisjunctiveConstraint,
    SimpleConstraint,
    branch_key,
    constraint_from_dict,
    constraint_to_dict,
)
from repro.core.discovery import (
    discover,
    discover_disjunctive,
    discover_simple,
    eligible_partition_attrs,
)
from repro.core.gram import augmented_gram, gram_pass, grouped_augmented_gram, numeric_columns
from repro.core.projections import derive_projections
from repro.core.scoring import (
    average_violation,
    score,
    violation_col,
    violation_numpy,
    violation_sql,
)

__all__ = [
    "BoundedProjection",
    "SimpleConstraint",
    "DisjunctiveConstraint",
    "CompoundConstraint",
    "constraint_to_dict",
    "constraint_from_dict",
    "branch_key",
    "gram_pass",
    "augmented_gram",
    "grouped_augmented_gram",
    "numeric_columns",
    "derive_projections",
    "discover",
    "discover_simple",
    "discover_disjunctive",
    "eligible_partition_attrs",
    "score",
    "violation_col",
    "violation_sql",
    "violation_numpy",
    "average_violation",
]
