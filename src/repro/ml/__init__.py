"""Machine-learning substrate for the paper's TML experiments.

``linreg`` — closed-form ordinary least squares, fit distributively via the
same augmented-Gram pass the constraint discovery uses (the airlines delay
regressor of Figures 3 and 4).

``classify`` — multinomial logistic regression via ``pyspark.ml`` (the HAR
person-identification classifier of Figure 5a).
"""
from repro.ml.linreg import LinearModel, fit_ols, mae

__all__ = ["LinearModel", "fit_ols", "mae"]
