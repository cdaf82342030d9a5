"""Phased fault plans for long-horizon soak runs.

A chaos run (:mod:`repro.experiments.chaos`) compresses every fault
class into one short workload.  A *soak* spreads them out: the horizon
is divided into simulated days, and each day carries a fixed rota of
**incidents** — named, windowed outbreaks of one failure class — with
healthy recovery gaps between them.  The windows are positioned on the
soak's virtual-clock timeline (the :class:`~repro.faults.injector.
FaultInjector` carries the clock), so an incident scheduled for hour 12
of day 3 strikes exactly the cluster bursts and fleet probes that run
inside that window, every time, for a given seed.

Alongside the scheduled incidents, a low-probability **background** of
machine sensor noise runs for the whole horizon.  Machine-facing
faults are windowed in each machine's *local* clock (machines pass
their own clock to the injector), which spans only seconds per tenant —
so background specs are always-on rather than day-phased.

The incident list is the unit of accounting: the harness reports MTTR,
availability, and energy regret *per incident*, which needs to know
when each incident started and cleared — :class:`SoakPlan` carries both
the injectable :class:`~repro.faults.plan.FaultPlan` and the schedule.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Tuple

from repro.errors import FaultPlanError
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "DAY_S",
    "Incident",
    "SoakPlan",
    "soak_plan",
    "soak_plan_names",
]

#: One simulated day, the soak's phasing unit.
DAY_S = 86400.0


@dataclasses.dataclass(frozen=True)
class Incident:
    """One named, windowed outbreak on the soak timeline.

    Attributes:
        name: ``"day{d}/{template}"`` — stable across runs, the key the
            harness reports MTTR and energy regret under.
        kinds: Fault kinds active during the window.
        start: Window start in simulated seconds from soak start.
        end: Window end (exclusive), simulated seconds.
    """

    name: str
    kinds: Tuple[str, ...]
    start: float
    end: float

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    def overlaps(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` intersects this incident's window."""
        return start < self.end and end > self.start


@dataclasses.dataclass(frozen=True)
class SoakPlan:
    """A fault plan plus the incident schedule that produced it.

    Attributes:
        name: Profile name (``"default"``, ``"quiet"``, ...).
        horizon_s: Simulated seconds the plan covers.
        plan: The injectable plan (background + incident specs).
        incidents: The scheduled incidents, chronological.
    """

    name: str
    horizon_s: float
    plan: FaultPlan
    incidents: Tuple[Incident, ...]


# Each template: (name, start day-fraction, end day-fraction,
# [(kind, probability, magnitude), ...]).  Fractions keep the rota
# identical on every day; windows are long (10 % of a day) so any
# segment cadence of a few hours is guaranteed to sample each window.
_INCIDENT_TEMPLATES: Tuple[Tuple[str, float, float,
                                 Tuple[Tuple[str, float, float], ...]],
                           ...] = (
    ("estimator-storm", 0.05, 0.15, (
        ("em-nonconvergence", 0.35, 1.0),
        ("singular-covariance", 0.20, 0.0),
        ("estimator-crash", 0.35, 1.0),
    )),
    ("brownout", 0.20, 0.30, (
        ("cap-transient", 1.0, 0.7),
    )),
    ("network-flap", 0.35, 0.45, (
        ("connection-drop", 0.5, 1.0),
        ("service-timeout", 0.25, 1.0),
    )),
    ("shard-outage", 0.50, 0.60, (
        ("broker-crash", 1.0, 1.0),
    )),
    ("storage-decay", 0.65, 0.75, (
        ("partial-write", 0.8, 0.5),
    )),
    ("tenant-churn", 0.80, 0.90, (
        ("tenant-crash", 0.25, 1.0),
    )),
)

#: Always-on machine sensor noise (machine-local clocks, see module doc).
_BACKGROUND_SPECS: Tuple[Tuple[str, float, float], ...] = (
    ("sensor-dropout", 0.02, 1.0),
    ("sensor-bias", 0.05, 0.10),
)

#: Probability multiplier per profile; ``None`` drops the incidents.
_PROFILES = {
    "none": None,
    "quiet": 0.0,
    "default": 1.0,
    "heavy": 1.6,
}


def soak_plan_names() -> List[str]:
    """The shipped soak profiles, sorted."""
    return sorted(_PROFILES)


def soak_plan(profile: str = "default", horizon_s: float = 2 * DAY_S,
              seed: int = 0) -> SoakPlan:
    """Build the phased plan for one soak.

    Args:
        profile: ``"none"`` (no faults at all), ``"quiet"`` (background
            noise only, no incidents), ``"default"`` (the daily rota),
            or ``"heavy"`` (the rota at 1.6x firing probability).
        horizon_s: Simulated soak length; incidents repeat daily and
            are clipped to the horizon.
        seed: Plan seed (drives every spec's firing stream).
    """
    if profile not in _PROFILES:
        raise FaultPlanError(
            f"unknown soak profile {profile!r}; "
            f"shipped profiles: {soak_plan_names()}")
    if horizon_s <= 0:
        raise FaultPlanError(f"horizon_s must be positive, got {horizon_s}")
    scale = _PROFILES[profile]
    specs: List[FaultSpec] = []
    incidents: List[Incident] = []
    if scale is not None:
        for kind, probability, magnitude in _BACKGROUND_SPECS:
            specs.append(FaultSpec(kind, probability=probability,
                                   magnitude=magnitude))
        days = int(math.ceil(horizon_s / DAY_S))
        for day in range(days):
            base = day * DAY_S
            for name, f0, f1, faults in _INCIDENT_TEMPLATES:
                start = base + f0 * DAY_S
                end = min(base + f1 * DAY_S, horizon_s)
                if start >= horizon_s or scale == 0.0:
                    continue
                for kind, probability, magnitude in faults:
                    specs.append(FaultSpec(
                        kind, start=start, end=end,
                        probability=min(probability * scale, 1.0),
                        magnitude=magnitude))
                incidents.append(Incident(
                    name=f"day{day}/{name}",
                    kinds=tuple(kind for kind, _, _ in faults),
                    start=start, end=end))
    return SoakPlan(
        name=profile, horizon_s=float(horizon_s),
        plan=FaultPlan(name=f"soak-{profile}", seed=seed,
                       specs=tuple(specs)),
        incidents=tuple(incidents))
