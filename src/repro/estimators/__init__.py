"""The estimation approaches the paper compares (Section 6.2)."""

from repro.estimators.base import (
    EstimationProblem,
    Estimator,
    InsufficientSamplesError,
    normalize_problem,
)
from repro.estimators.knn import KNNEstimator
from repro.estimators.leo import LEOEstimator
from repro.estimators.offline import OfflineEstimator
from repro.estimators.online import OnlineEstimator
from repro.estimators.transfer import TransferAwareLEO
from repro.estimators.registry import (
    available_estimators,
    create_estimator,
    register,
    register_estimator,
    unregister,
)

__all__ = [
    "EstimationProblem",
    "Estimator",
    "InsufficientSamplesError",
    "normalize_problem",
    "KNNEstimator",
    "LEOEstimator",
    "OfflineEstimator",
    "OnlineEstimator",
    "TransferAwareLEO",
    "available_estimators",
    "create_estimator",
    "register",
    "register_estimator",
    "unregister",
]
