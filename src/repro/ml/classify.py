"""Multinomial logistic regression for the HAR person-ID task (Figure 5a).

Thin wrapper over ``pyspark.ml``: StringIndexer (label) + VectorAssembler
(features) + LogisticRegression, exposing only what the experiment needs —
fit on an annotated DataFrame, and accuracy on a test DataFrame.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from pyspark.ml import Pipeline, PipelineModel
from pyspark.ml.classification import LogisticRegression
from pyspark.ml.feature import StringIndexer, VectorAssembler
from pyspark.sql import DataFrame
from pyspark.sql import functions as Fn

#: L2 regularization of the logistic regression.
REG_PARAM = 1e-3


@dataclass(frozen=True)
class Classifier:
    """A fitted pipeline plus the label column it predicts."""

    model: PipelineModel
    label_col: str


def fit_logreg(
    df: DataFrame,
    feature_cols: Sequence[str],
    label_col: str,
    max_iter: int = 50,
) -> Classifier:
    """Fit multinomial logistic regression on ``[df[feature_cols]; df[label_col]]``."""
    pipeline = Pipeline(
        stages=[
            StringIndexer(inputCol=label_col, outputCol="_label", handleInvalid="keep"),
            VectorAssembler(inputCols=list(feature_cols), outputCol="_features"),
            LogisticRegression(
                featuresCol="_features",
                labelCol="_label",
                maxIter=max_iter,
                regParam=REG_PARAM,
            ),
        ]
    )
    return Classifier(model=pipeline.fit(df), label_col=label_col)


def accuracy(clf: Classifier, df: DataFrame) -> float:
    """Fraction of tuples whose predicted label index matches the true one."""
    pred = clf.model.transform(df)
    row = pred.select(
        Fn.avg((Fn.col("prediction") == Fn.col("_label")).cast("double")).alias("acc")
    ).first()
    return float(row["acc"])
