"""Named, shipped fault plans.

The ``default`` plan is the acceptance plan: it exercises every fault
class in the taxonomy against a single chaos run (faults are active
early — roughly the first minute of simulated time, or the first few
events at clock-less sites — and then clear, so the run also exercises
recovery and promotion back to the configured estimator).

Plans are plain data; name these on the ``repro chaos`` command line.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import FaultPlanError
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = ["default_plan", "get_plan", "plan_names"]

#: Simulated-clock horizon inside which the default plan's
#: machine-facing faults are active; after it, the system is healthy
#: and should promote back up the ladder.
DEFAULT_FAULT_HORIZON = 60.0


def _fault_free(seed: int = 0) -> FaultPlan:
    return FaultPlan(name="none", seed=seed, specs=())


def _sensors(seed: int = 0) -> FaultPlan:
    h = DEFAULT_FAULT_HORIZON
    return FaultPlan(name="sensors", seed=seed, specs=(
        FaultSpec("sensor-dropout", end=h, probability=0.05),
        FaultSpec("sensor-outlier", end=h, probability=0.03, magnitude=4.0),
        FaultSpec("sensor-bias", end=h, probability=0.10, magnitude=0.15),
    ))


def _estimation(seed: int = 0) -> FaultPlan:
    return FaultPlan(name="estimation", seed=seed, specs=(
        FaultSpec("em-nonconvergence", probability=0.5, max_events=2),
        FaultSpec("singular-covariance", probability=0.5, max_events=2,
                  magnitude=0.0),
        FaultSpec("estimator-crash", probability=0.5, max_events=2),
    ))


def _service(seed: int = 0) -> FaultPlan:
    return FaultPlan(name="service", seed=seed, specs=(
        FaultSpec("connection-drop", probability=0.4, max_events=3),
        FaultSpec("service-timeout", probability=0.3, max_events=2),
        FaultSpec("corrupt-response", probability=0.3, max_events=2),
    ))


def _cluster(seed: int = 0) -> FaultPlan:
    return FaultPlan(name="cluster", seed=seed, specs=(
        FaultSpec("tenant-crash", start=5.0, max_events=1),
        FaultSpec("cap-transient", start=5.0, end=15.0, magnitude=0.7),
    ))


def _shard_loss(seed: int = 0) -> FaultPlan:
    """Partial fleet failure: a crashed broker, a slow shard, and a
    replica cut off from the leader.  The chaos gate asserts the
    crashed shard's tenants shed with :class:`ShardUnavailable` while
    every other shard keeps answering."""
    return FaultPlan(name="shard-loss", seed=seed, specs=(
        FaultSpec("broker-crash", probability=1.0, max_events=4),
        FaultSpec("slow-shard", probability=0.5, max_events=3,
                  magnitude=0.05),
        FaultSpec("partitioned-replica", probability=1.0, max_events=3),
    ))


def default_plan(seed: int = 0) -> FaultPlan:
    """The shipped acceptance plan: every fault class, then recovery.

    Machine-facing faults clear after :data:`DEFAULT_FAULT_HORIZON`
    simulated seconds; event-indexed faults (EM, estimator, service,
    persistence) are capped with ``max_events`` so they exhaust early in
    the run.  A surviving controller must degrade while they are
    active and promote back to its configured estimator afterwards.
    """
    h = DEFAULT_FAULT_HORIZON
    return FaultPlan(name="default", seed=seed, specs=(
        # Sensing
        FaultSpec("sensor-dropout", end=h, probability=0.05),
        FaultSpec("sensor-outlier", end=h, probability=0.03, magnitude=4.0),
        FaultSpec("sensor-bias", end=h, probability=0.10, magnitude=0.15),
        # Estimation
        FaultSpec("em-nonconvergence", probability=0.5, max_events=2),
        FaultSpec("singular-covariance", probability=0.5, max_events=2,
                  magnitude=0.0),
        FaultSpec("estimator-crash", probability=0.5, max_events=2),
        # Service
        FaultSpec("connection-drop", probability=0.4, max_events=3),
        FaultSpec("service-timeout", probability=0.3, max_events=2),
        FaultSpec("corrupt-response", probability=0.3, max_events=2),
        # Persistence
        FaultSpec("partial-write", probability=0.5, max_events=2,
                  magnitude=0.5),
        # Cluster
        FaultSpec("tenant-crash", start=5.0, max_events=1),
        FaultSpec("cap-transient", start=5.0, end=15.0, magnitude=0.7),
        # Sharded fleet (appended — spec order seeds per-spec streams,
        # so earlier entries must keep their positions)
        FaultSpec("broker-crash", probability=0.5, max_events=2),
        FaultSpec("slow-shard", probability=0.3, max_events=2,
                  magnitude=0.05),
        FaultSpec("partitioned-replica", probability=0.5, max_events=2),
    ))


_FACTORIES = {
    "none": _fault_free,
    "default": default_plan,
    "sensors": _sensors,
    "estimation": _estimation,
    "service": _service,
    "cluster": _cluster,
    "shard-loss": _shard_loss,
}


def plan_names() -> List[str]:
    """The shipped plan names, sorted."""
    return sorted(_FACTORIES)


def get_plan(name: str, seed: int = 0) -> FaultPlan:
    """Build a shipped plan by name (seeded)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise FaultPlanError(
            f"unknown fault plan {name!r}; shipped plans: {plan_names()}"
        ) from None
    return factory(seed)


def _check_default_covers_taxonomy() -> None:
    # The acceptance criteria hinge on the default plan exercising the
    # full taxonomy; guard it at import time so a taxonomy extension
    # cannot silently leave the default plan behind.
    from repro.faults.plan import KINDS

    missing = set(KINDS) - set(default_plan().kinds)
    if missing:
        raise FaultPlanError(
            f"default plan is missing fault kinds {sorted(missing)}")


_check_default_covers_taxonomy()
