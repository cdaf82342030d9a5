"""The unified typed exception hierarchy.

Before this module existed, each subsystem grew its own ad-hoc errors:
``optimize/lp.py`` raised a bare ``ValueError`` subclass for infeasible
constraints, ``service/protocol.py`` owned the wire-level service
errors, and the estimators raised ``InsufficientSamplesError`` from
their own base module.  Robust degradation needs one place where the
runtime can say "anything recoverable" (``except ReproError``) and one
taxonomy the fault injector, the degradation ladder, and the chaos
reports all agree on.

Every class that moved here is still re-exported from its historical
module (``repro.optimize.lp``, ``repro.estimators.base``,
``repro.service.protocol``), so existing imports — and existing
``except`` clauses — keep working.  Back-compat constraints honoured:

* :class:`InsufficientSamplesError` and
  :class:`InfeasibleConstraintError` still subclass ``ValueError``.
* :class:`CovarianceError` subclasses ``numpy.linalg.LinAlgError`` so
  historical ``except LinAlgError`` around the PSD repair keeps firing.
* Every :class:`ServiceError` subclass keeps its wire-level ``code``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "ReproError",
    # estimation
    "EstimationError",
    "InsufficientSamplesError",
    "ConvergenceError",
    "CovarianceError",
    # optimization
    "OptimizationError",
    "InfeasibleConstraintError",
    # telemetry
    "TelemetryError",
    "SensorReadError",
    # persistence
    "PersistenceError",
    "CheckpointError",
    # cluster
    "ClusterError",
    "TenantCrashError",
    # fault injection
    "FaultPlanError",
    # service (wire-level)
    "ServiceError",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "RequestRejected",
    "EstimationRejected",
    "ProtocolError",
    "FrameError",
    "RemoteError",
    "ShardUnavailable",
]


class ReproError(Exception):
    """Root of every typed error the reproduction raises on purpose.

    The degradation machinery treats ``ReproError`` (plus the transport
    exceptions the service client surfaces) as *recoverable*: something
    a controller may answer by stepping down its estimator ladder rather
    than crashing.  Genuine programming errors stay ordinary
    ``TypeError`` / ``RuntimeError`` and propagate.
    """


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------
class EstimationError(ReproError):
    """An estimator failed to produce a usable curve."""


class InsufficientSamplesError(EstimationError, ValueError):
    """The estimator cannot produce a well-posed estimate from so few samples.

    Subclasses ``ValueError`` because it historically did (it lived in
    ``repro.estimators.base``) and callers catch it as one.
    """


class ConvergenceError(EstimationError):
    """EM hit its iteration cap without converging, or its likelihood
    became non-finite mid-fit.

    Attributes:
        iterations: Iterations executed before giving up.
        loglik: The last observed-data log-likelihood (may be NaN).
    """

    def __init__(self, message: str, iterations: int = 0,
                 loglik: float = float("nan")) -> None:
        super().__init__(message)
        self.iterations = int(iterations)
        self.loglik = float(loglik)


class CovarianceError(EstimationError, np.linalg.LinAlgError):
    """A covariance matrix could not be repaired to positive definite.

    Raised by :func:`repro.core.linalg.nearest_psd_jitter` after its
    jitter escalation is exhausted.  Subclasses
    ``numpy.linalg.LinAlgError`` so code written against the old raise
    (``except np.linalg.LinAlgError``) keeps working.
    """


# ----------------------------------------------------------------------
# Optimization
# ----------------------------------------------------------------------
class OptimizationError(ReproError):
    """The Eq. (1) optimizer could not produce a schedule."""


class InfeasibleConstraintError(OptimizationError, ValueError):
    """The performance constraint exceeds the estimated capacity.

    Raised by :meth:`repro.optimize.lp.EnergyMinimizer.solve` when
    ``work / deadline`` is higher than the highest rate on the estimated
    frontier.  Subclasses ``ValueError`` so historical ``except
    ValueError`` call sites keep working; new callers (notably the
    cluster power allocator) catch the typed error and read the attached
    capacity to degrade gracefully instead of failing.

    Attributes:
        required: The demanded rate, ``work / deadline`` (hb/s).
        max_rate: The highest achievable rate under the estimate (hb/s).
    """

    def __init__(self, required: float, max_rate: float) -> None:
        super().__init__(
            f"demand {required:g} hb/s exceeds estimated capacity "
            f"{max_rate:g} hb/s"
        )
        self.required = float(required)
        self.max_rate = float(max_rate)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TelemetryError(ReproError):
    """A measurement channel misbehaved."""


class SensorReadError(TelemetryError):
    """A sensor reading was lost (meter dropout).

    The application kept running — the machine's clock, energy, and
    heartbeats still advanced — but the *observation* of the window
    never arrived.  Controllers account the lost window conservatively:
    time passed, no work is credited.

    Attributes:
        site: The injection/measurement site that dropped the reading.
    """

    def __init__(self, message: str = "sensor reading lost",
                 site: str = "") -> None:
        super().__init__(message)
        self.site = site


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
class PersistenceError(ReproError):
    """A store could not complete a read or write."""


class CheckpointError(PersistenceError):
    """A controller checkpoint could not be written, read, or applied."""


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------
class ClusterError(ReproError):
    """A coordinator-level failure."""


class TenantCrashError(ClusterError):
    """A tenant process died mid-epoch (injected or real)."""

    def __init__(self, name: str, message: str = "") -> None:
        super().__init__(message or f"tenant {name!r} crashed")
        self.name = name


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class FaultPlanError(ReproError, ValueError):
    """A fault plan or fault spec is malformed."""


# ----------------------------------------------------------------------
# Service (wire-level)
# ----------------------------------------------------------------------
class ServiceError(ReproError):
    """Base class for service failures; ``code`` is the wire-level type."""

    code = "internal"

    def __init__(self, message: str = "",
                 details: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message or self.code)
        self.details: Dict[str, Any] = dict(details or {})


class ServiceOverloaded(ServiceError):
    """The admission queue is full; the request was shed, not queued."""

    code = "overloaded"


class DeadlineExceeded(ServiceError):
    """The request's deadline passed before a result was produced."""

    code = "deadline-exceeded"


class RequestRejected(ServiceError):
    """The request is well-formed but semantically invalid."""

    code = "bad-request"


class EstimationRejected(ServiceError):
    """The chosen estimator is ill-posed for the submitted samples."""

    code = "insufficient-samples"


class ProtocolError(ServiceError):
    """The frame could not be parsed as a protocol message."""

    code = "protocol-error"


class FrameError(ProtocolError):
    """A wire frame is truncated, corrupt, or from an unknown protocol
    version.

    Subclasses :class:`ProtocolError`, so code that handles any
    malformed message handles a framing failure too.  The client drops
    its connection on one, since the rest of a bad frame would be read
    as the next reply; the broker drops a connection whose frame
    boundaries it can no longer find (bad magic or prefix, truncation).
    """

    code = "frame-error"


class RemoteError(ServiceError):
    """An unexpected failure inside the server."""

    code = "internal"


class ShardUnavailable(ServiceError):
    """The tenant's owning shard is down; the rest of the fleet serves on.

    Raised by the shard router (and the sharded client) when the
    consistent-hash owner of a tenant key is marked unhealthy.  The
    error is scoped to the lost shard's tenants by construction — other
    tenants hash to healthy shards and never see it — which is the
    fleet's load-shedding contract under partial failure.
    """

    code = "shard-unavailable"
