"""LEO's core: the hierarchical Bayesian model and its EM machinery."""

from repro.core.accuracy import accuracy, mape
from repro.core.em import EMConfig, EMEngine, EMResult
from repro.core.hbm import FittedModel, HierarchicalBayesianModel
from repro.core.linalg import (
    MaskedPosterior,
    dense_posterior,
    nearest_psd_jitter,
    symmetrize,
)
from repro.core.observation import ObservationSet
from repro.core.priors import ML_PRIOR, NIWPrior

__all__ = [
    "accuracy",
    "mape",
    "EMConfig",
    "EMEngine",
    "EMResult",
    "FittedModel",
    "HierarchicalBayesianModel",
    "MaskedPosterior",
    "dense_posterior",
    "nearest_psd_jitter",
    "symmetrize",
    "ObservationSet",
    "ML_PRIOR",
    "NIWPrior",
]
