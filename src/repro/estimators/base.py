"""The estimation problem and the estimator interface.

Every approach the paper compares (Section 6.2) answers the same
question: given a few observations of the target application, plus
optionally the offline profiles of other applications, predict the
target's value (power or performance) in *every* configuration.
:class:`EstimationProblem` is that question as data;
:class:`Estimator` is the interface each approach implements.

Performance curves are compared across applications in a normalized
space (the paper reports performance "measured as speedup"): raw
heartbeat rates span four orders of magnitude across the suite, so
estimators that pool applications (offline mean, LEO) operate on curves
normalized by each application's mean over the observed subset, and the
target's absolute scale is recovered from its own observations.
:func:`normalize_problem` performs this transformation.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import EstimationError, InsufficientSamplesError
from repro.faults.context import get_injector
from repro.obs import get_observability

# Back-compat alias: InsufficientSamplesError was born here and moved
# to repro.errors; ``from repro.estimators.base import
# InsufficientSamplesError`` resolves to the same class object.
__all__ = [
    "EstimationProblem",
    "Estimator",
    "InsufficientSamplesError",
    "normalize_problem",
]


@dataclasses.dataclass(frozen=True)
class EstimationProblem:
    """One target-application estimation instance.

    Attributes:
        features: ``(n, d)`` numeric knob values of each configuration
            (cores, threads, memory controllers, speed index) — the
            predictors of the online regression baseline.
        prior: ``(M-1, n)`` offline table of other applications, or
            ``None`` when no offline data exists.
        observed_indices: Omega_M — sampled configuration indices.
        observed_values: Measurements of the target at those indices.

    Construction raises ``ValueError`` for misshapen arrays, indices
    outside ``[0, n)`` or repeated, and non-finite features, prior
    entries or observed values.
    """

    features: np.ndarray
    prior: Optional[np.ndarray]
    observed_indices: np.ndarray
    observed_values: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        idx = np.asarray(self.observed_indices, dtype=int)
        vals = np.asarray(self.observed_values, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got {features.shape}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if idx.ndim != 1 or idx.shape != vals.shape:
            raise ValueError("observed indices/values must be aligned 1-D arrays")
        if idx.size and (idx.min() < 0 or idx.max() >= features.shape[0]):
            raise ValueError("observed indices out of configuration range")
        if idx.size and len(np.unique(idx)) != idx.size:
            raise ValueError("observed indices must be unique")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observed values must be finite")
        if self.prior is not None:
            prior = np.asarray(self.prior, dtype=float)
            if prior.ndim != 2 or prior.shape[1] != features.shape[0]:
                raise ValueError(
                    f"prior shape {prior.shape} incompatible with "
                    f"{features.shape[0]} configurations"
                )
            if not np.all(np.isfinite(prior)):
                raise ValueError("prior entries must be finite")
            object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "observed_indices", idx)
        object.__setattr__(self, "observed_values", vals)

    @property
    def num_configs(self) -> int:
        return self.features.shape[0]

    @property
    def num_observations(self) -> int:
        return self.observed_indices.size

    @property
    def num_prior_applications(self) -> int:
        return 0 if self.prior is None else self.prior.shape[0]


def _traced_estimate(fn: Callable) -> Callable:
    """Wrap an ``estimate`` implementation in an ``estimator.fit`` span.

    Applied automatically to every :class:`Estimator` subclass, so each
    registry estimator is traced uniformly without touching its code.
    When observability is disabled the wrapper is one context lookup and
    a direct call — no spans, no timers.
    """
    @functools.wraps(fn)
    def wrapper(self, problem: EstimationProblem) -> np.ndarray:
        for spec in get_injector().fire("estimator.fit"):
            if spec.kind == "estimator-crash":
                raise EstimationError(
                    f"injected estimator crash ({self.name})")
        ob = get_observability()
        if not ob.enabled:
            return fn(self, problem)
        with ob.tracer.span(
                "estimator.fit", estimator=self.name,
                num_configs=problem.num_configs,
                num_observations=problem.num_observations,
                num_prior_applications=problem.num_prior_applications,
        ) as span:
            started = time.perf_counter()
            result = fn(self, problem)
            ob.metrics.observe("fit_seconds",
                               time.perf_counter() - started)
            last_fit = getattr(self, "last_fit", None)
            if last_fit is not None:
                span.set_attribute("em_iterations", last_fit.iterations)
                span.set_attribute("em_converged", last_fit.converged)
                span.set_attribute("loglik", last_fit.loglik)
        return result

    wrapper._obs_traced = True  # type: ignore[attr-defined]
    return wrapper


class Estimator(abc.ABC):
    """An approach that completes a target application's curve."""

    #: Short identifier used in registries, experiments, and reports.
    name: str = "estimator"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        estimate = cls.__dict__.get("estimate")
        if estimate is not None and not getattr(estimate, "_obs_traced",
                                                False):
            cls.estimate = _traced_estimate(estimate)

    @abc.abstractmethod
    def estimate(self, problem: EstimationProblem) -> np.ndarray:
        """Predict the target's value in every configuration.

        Returns an array of shape ``(problem.num_configs,)``.

        Raises:
            InsufficientSamplesError: If the approach is ill-posed for
                the problem's sample count (e.g. polynomial regression
                below its coefficient count).
        """


def normalize_problem(problem: EstimationProblem
                      ) -> Tuple[EstimationProblem, float]:
    """Rescale a problem into normalized (speedup-like) space.

    Each prior application's row is divided by its own mean over the
    observed index subset, and the target's observations by their mean.
    Returns the rescaled problem and the target's scale factor; an
    estimate made on the normalized problem times the scale factor is an
    estimate in original units.
    """
    if problem.num_observations == 0:
        raise ValueError("cannot normalize a problem with no observations")
    scale = float(np.mean(problem.observed_values))
    if scale <= 0:
        raise ValueError(
            f"observed values must have a positive mean, got {scale}"
        )
    prior = problem.prior
    if prior is not None:
        anchors = prior[:, problem.observed_indices].mean(axis=1, keepdims=True)
        if np.any(anchors <= 0):
            raise ValueError("prior rows must have positive observed means")
        prior = prior / anchors
    normalized = EstimationProblem(
        features=problem.features,
        prior=prior,
        observed_indices=problem.observed_indices,
        observed_values=problem.observed_values / scale,
    )
    return normalized, scale
