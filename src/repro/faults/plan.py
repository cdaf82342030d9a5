"""Typed fault specifications and named fault plans.

A :class:`FaultSpec` describes one class of failure — what kind, where
it strikes (derived from the kind), when it is active, how often it
fires, and how hard.  A :class:`FaultPlan` is a named, seeded sequence
of specs; given the same plan and the same workload, the injector fires
the same faults at the same moments, so every chaos run is exactly
reproducible (the same discipline the experiment harness applies to
measurement noise).

The shipped plans live in :mod:`repro.faults.plans` and are named on
the ``repro chaos`` command line.

Fault taxonomy (see docs/RESILIENCE.md for the semantics of each):

========================  =====================  =============================
kind                      site                   effect when fired
========================  =====================  =============================
``sensor-dropout``        ``machine.measure``    window's reading lost
                                                 (:class:`SensorReadError`)
``sensor-outlier``        ``machine.measure``    rate/power reading scaled by
                                                 ``magnitude``
``sensor-bias``           ``machine.measure``    power reading scaled by
                                                 ``1 + magnitude``
``em-nonconvergence``     ``em.fit``             fit raises
                                                 :class:`ConvergenceError`
``singular-covariance``   ``em.fit``             initial Sigma degraded to
                                                 singular (``magnitude`` ≥ 0:
                                                 repairable by jitter
                                                 escalation; < 0: non-finite,
                                                 :class:`CovarianceError`)
``estimator-crash``       ``estimator.fit``      fit raises
                                                 :class:`EstimationError`
``connection-drop``       ``service.call``       client sees ``ConnectionError``
``service-timeout``       ``service.call``       client sees ``socket.timeout``
``corrupt-response``      ``service.call``       client sees
                                                 :class:`ProtocolError`
``partial-write``         ``persistence.write``  record truncated to a
                                                 ``magnitude`` fraction after
                                                 the atomic replace
``tenant-crash``          ``cluster.tenant``     ``target`` tenant departs at
                                                 the epoch boundary
``cap-transient``         ``cluster.cap``        cap scaled by ``magnitude``
                                                 while the window is active
``broker-crash``          ``shard.route``        routed shard's broker is
                                                 gone: transport failure →
                                                 health accounting →
                                                 :class:`ShardUnavailable`
``slow-shard``            ``shard.call``         ``magnitude`` seconds of
                                                 added latency on the call
``partitioned-replica``   ``registry.sync``      replica cannot reach the
                                                 leader; reads serve stale
                                                 within the staleness bound
========================  =====================  =============================
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

from repro.errors import FaultPlanError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "KIND_SITES",
    "KINDS",
    "SITES",
    "WINDOWED_KINDS",
]

#: Every fault kind, mapped to the injection site it strikes.
KIND_SITES: Dict[str, str] = {
    "sensor-dropout": "machine.measure",
    "sensor-outlier": "machine.measure",
    "sensor-bias": "machine.measure",
    "em-nonconvergence": "em.fit",
    "singular-covariance": "em.fit",
    "estimator-crash": "estimator.fit",
    "connection-drop": "service.call",
    "service-timeout": "service.call",
    "corrupt-response": "service.call",
    "partial-write": "persistence.write",
    "tenant-crash": "cluster.tenant",
    "cap-transient": "cluster.cap",
    "broker-crash": "shard.route",
    "slow-shard": "shard.call",
    "partitioned-replica": "registry.sync",
}

KINDS: Tuple[str, ...] = tuple(sorted(KIND_SITES))
SITES: Tuple[str, ...] = tuple(sorted(set(KIND_SITES.values())))

#: Kinds that describe a *state* over a window (queried with
#: :meth:`FaultInjector.active`) rather than a per-event firing.
WINDOWED_KINDS: Tuple[str, ...] = ("cap-transient",)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One class of failure in a plan.

    Attributes:
        kind: The fault kind (one of :data:`KINDS`); fixes the site.
        start: Window start.  For sites that carry a clock (the
            simulated machine, the cluster's node clock) the window is
            in simulated seconds; for clock-less sites (EM fits, service
            calls, persistence writes) it is the site-local event index.
        end: Window end (exclusive); ``inf`` means "until the run ends".
        probability: Per-event firing probability inside the window,
            drawn from the spec's own seeded stream.
        magnitude: Kind-specific severity (see the module table).
        target: Restrict the fault to one victim (a tenant name);
            empty string means any/all.
        max_events: Cap on total firings; ``None`` is unlimited.
            Ignored for windowed kinds, which describe a state.
    """

    kind: str
    start: float = 0.0
    end: float = math.inf
    probability: float = 1.0
    magnitude: float = 1.0
    target: str = ""
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KIND_SITES:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if not (0.0 <= self.probability <= 1.0):
            raise FaultPlanError(
                f"{self.kind}: probability must be in [0, 1], "
                f"got {self.probability}")
        if self.start < 0 or self.end < self.start:
            raise FaultPlanError(
                f"{self.kind}: window [{self.start}, {self.end}) is invalid")
        if self.max_events is not None and self.max_events < 1:
            raise FaultPlanError(
                f"{self.kind}: max_events must be >= 1 or None, "
                f"got {self.max_events}")

    @property
    def site(self) -> str:
        """The injection site this fault strikes (fixed by the kind)."""
        return KIND_SITES[self.kind]

    @property
    def windowed(self) -> bool:
        """Whether this fault is a window state, not a per-event firing."""
        return self.kind in WINDOWED_KINDS


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of fault specs.

    Attributes:
        name: Plan identifier (shows up in reports and metrics).
        seed: Base seed; every spec's firing stream derives from it
            stably, so a plan replays identically.
        specs: The fault specs, in a stable order (the order seeds the
            per-spec streams, so it is part of the plan's identity).
    """

    name: str
    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise FaultPlanError(
                f"plan name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultPlanError(
                    f"plan specs must be FaultSpec instances, got {spec!r}")

    @property
    def kinds(self) -> Tuple[str, ...]:
        """The distinct fault kinds this plan exercises, sorted."""
        return tuple(sorted({spec.kind for spec in self.specs}))
