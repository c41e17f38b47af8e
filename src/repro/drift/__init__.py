"""Drift-detection baselines the paper compares against (Figure 8 / 5b).

``pca_spll`` — PCA-SPLL [53]: keep *low*-variance principal components while
their cumulative explained variance stays below a threshold (25 %), then a
semi-parametric log-likelihood score in the retained subspace.  Its paper-
exercised failure mode — "discards all principal components" on
rotation-symmetric local drift — is preserved.

``cd`` — Change Detection [68]: project onto the top-k *high*-variance
components and compare per-component histogram densities between the
reference and the new window, via max KL divergence (CD-MKL) or
intersection area (CD-Area).

W-PCA, the weighted-PCA global baseline of Figure 5b, is exactly DISYNTH's
*simple* (global, non-disjunctive) constraint: ``core.discover_simple``
scored with ``core.average_violation``.
"""
from repro.drift.cd import CDModel, fit_cd
from repro.drift.pca_spll import SPLLModel, fit_pca_spll

__all__ = ["SPLLModel", "fit_pca_spll", "CDModel", "fit_cd"]
