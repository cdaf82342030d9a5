"""The estimator degradation ladder and its circuit breaker.

When an estimator fails — EM refuses to converge, a covariance turns
singular, the estimation service drops the connection — the runtime
must keep actuating *some* valid configuration: crashing mid-run costs
the whole window, while a worse model costs a few joules.  The ladder
encodes the fallback order:

1. The **configured** estimator (LEO, or a :class:`RemoteEstimator`).
2. ``online`` — polynomial regression on the target's own samples,
   needing no priors and no EM.
3. ``offline`` — the mean of the offline profiles, needing no fit at
   all (present only when the controller has priors).
4. **pinned** — no estimator: the measured samples themselves, padded
   conservatively (slowest measured rate, highest measured power) so
   the LP stays feasible and never schedules an unmeasured
   configuration optimistically.

A :class:`CircuitBreaker` guards the climb back up: a demotion opens
it; ``cooldown`` consecutive healthy quanta half-open it; one probe
calibration at the higher tier then either closes it (promotion) or
re-opens it (another full cooldown before the next probe).  Fault-free
runs never touch the breaker's state and execute the configured tier
directly, so they remain bit-identical to a ladder-less controller.

Every transition is observable: ``resilience_demotions_total`` /
``resilience_promotions_total`` counters, the ``resilience_tier``
gauge, and ``resilience.demote`` / ``resilience.promote`` spans.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import clock as clockmod
from repro.errors import InsufficientSamplesError, ReproError
from repro.estimators.base import Estimator
from repro.obs import get_observability

logger = logging.getLogger(__name__)

#: Exception classes the ladder answers by falling to the next tier.
#: ``OSError`` covers the transport failures a RemoteEstimator surfaces
#: (ConnectionError, socket.timeout); ``LinAlgError`` covers numerical
#: collapse below the typed CovarianceError; everything else is a
#: programming error and propagates.
RECOVERABLE_EXCEPTIONS = (ReproError, np.linalg.LinAlgError, OSError)

#: The terminal tier's name (no estimator behind it).
PINNED_TIER = "pinned"


@dataclasses.dataclass
class Tier:
    """One rung of the ladder: a name and the estimator behind it.

    ``estimator is None`` marks the terminal pinned tier.
    """

    name: str
    estimator: Optional[Estimator]

    @property
    def pinned(self) -> bool:
        return self.estimator is None


class CircuitBreaker:
    """Classic closed / open / half-open breaker, counted in quanta.

    * **closed** — healthy; failures below the threshold are tolerated.
    * **open** — tripped; the protected operation (a probe of the tier
      above) is refused until ``cooldown`` healthy quanta accumulate.
    * **half-open** — cooled down; exactly one probe is allowed, and
      its outcome closes or re-opens the breaker.

    ``cooldown_s`` switches the open→half-open transition from quanta
    counting to elapsed clock seconds (read from ``clock``, or the
    ambient :func:`repro.clock.get_clock`) — the mode the soak harness
    uses so breaker recovery time is measured on the same virtual
    timeline as the faults that tripped it.  The default (``None``)
    keeps quanta counting, bit-identical to the original behaviour.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 1,
                 cooldown_quanta: int = 8,
                 cooldown_s: Optional[float] = None,
                 clock=None) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {failure_threshold}")
        if cooldown_quanta < 1:
            raise ValueError(f"cooldown_quanta must be >= 1, "
                             f"got {cooldown_quanta}")
        if cooldown_s is not None and cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_quanta = cooldown_quanta
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.state = self.CLOSED
        self.failures = 0
        self.healthy_quanta = 0
        self.opened_at: Optional[float] = None

    def _now(self) -> float:
        return clockmod.resolve(self._clock).now()

    def record_failure(self) -> None:
        """A protected operation failed; trip after the threshold."""
        self.failures += 1
        self.healthy_quanta = 0
        if self.failures >= self.failure_threshold:
            self.state = self.OPEN
            if self.cooldown_s is not None:
                self.opened_at = self._now()

    def record_success(self) -> None:
        """A probe succeeded; the breaker closes and forgets."""
        self.state = self.CLOSED
        self.failures = 0
        self.healthy_quanta = 0
        self.opened_at = None

    def note_healthy(self) -> None:
        """One quantum passed without faults; cool an open breaker."""
        if self.state != self.OPEN:
            return
        self.healthy_quanta += 1
        if self.cooldown_s is not None:
            now = self._now()
            if self.opened_at is None:
                # The breaker was opened by direct state assignment
                # (promotion re-arm): start the cooldown at the first
                # healthy observation.
                self.opened_at = now
            if now - self.opened_at >= self.cooldown_s:
                self.state = self.HALF_OPEN
        elif self.healthy_quanta >= self.cooldown_quanta:
            self.state = self.HALF_OPEN

    def note_fault(self) -> None:
        """A fault surfaced outside the protected op; restart cooling."""
        self.healthy_quanta = 0
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN
        if self.state == self.OPEN and self.cooldown_s is not None:
            self.opened_at = self._now()

    @property
    def allows_probe(self) -> bool:
        return self.state == self.HALF_OPEN

    # -- checkpoint plumbing -------------------------------------------
    def snapshot(self) -> dict:
        data = {"state": self.state, "failures": self.failures,
                "healthy_quanta": self.healthy_quanta}
        if self.opened_at is not None:
            data["opened_at"] = self.opened_at
        return data

    def restore(self, data: dict) -> None:
        self.state = data["state"]
        self.failures = int(data["failures"])
        self.healthy_quanta = int(data["healthy_quanta"])
        opened = data.get("opened_at")
        self.opened_at = float(opened) if opened is not None else None


class DegradationLadder:
    """Orders estimator tiers and tracks which one is trusted.

    Args:
        tiers: The rungs, best first; the last must be the pinned tier.
        breaker: The circuit breaker guarding promotion probes; its
            ``cooldown_quanta`` is the "bounded number of healthy
            quanta" after which a degraded controller probes back up.
    """

    def __init__(self, tiers: Sequence[Tier],
                 breaker: Optional[CircuitBreaker] = None) -> None:
        tiers = list(tiers)
        if not tiers:
            raise ValueError("ladder needs at least one tier")
        if not tiers[-1].pinned:
            raise ValueError("the last tier must be the pinned tier")
        self.tiers: List[Tier] = tiers
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.tier_index = 0
        self.demotions = 0
        self.promotions = 0
        #: The rung a promotion probe left, while the probe calibrates.
        self.probe_origin: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def current(self) -> Tier:
        return self.tiers[self.tier_index]

    @property
    def degraded(self) -> bool:
        return self.tier_index > 0

    def tiers_from_current(self) -> List[Tuple[int, Tier]]:
        """The rungs to try, current first, terminal pinned last."""
        return [(i, self.tiers[i])
                for i in range(self.tier_index, len(self.tiers))]

    # ------------------------------------------------------------------
    def demote_to(self, index: int, reason: str) -> None:
        """Record that estimation only succeeded at rung ``index``.

        During a probe the descent counts from the rung the probe left:
        falling back onto it is a failed probe, not a demotion, since
        the probe never promoted anything.
        """
        origin = self.probe_origin
        if origin is not None:
            if index <= origin:
                self.record_failed_probe()
                return
            self.tier_index, self.probe_origin = origin, None
        if index <= self.tier_index:
            return
        previous = self.tiers[self.tier_index].name
        self.tier_index = index
        self.demotions += 1
        was_open = self.breaker.state == CircuitBreaker.OPEN
        self.breaker.record_failure()
        ob = get_observability()
        ob.metrics.inc("resilience_demotions_total")
        ob.metrics.set_gauge("resilience_tier", float(index))
        ob.slo.record_event("ladder-demotion")
        if not was_open and self.breaker.state == CircuitBreaker.OPEN:
            ob.slo.record_event("breaker-open")
        if ob.tracer.is_recording:
            with ob.tracer.span("resilience.demote", from_tier=previous,
                                to_tier=self.current.name, reason=reason):
                pass
        logger.warning("estimator degraded",
                       extra={"fields": {"from": previous,
                                         "to": self.current.name,
                                         "reason": reason}})

    def note_healthy_quantum(self) -> None:
        """One fault-free quantum elapsed (cools the breaker)."""
        if self.degraded:
            self.breaker.note_healthy()

    def note_fault(self) -> None:
        """A runtime fault surfaced (restarts the breaker's cooldown)."""
        self.breaker.note_fault()

    @property
    def promotion_ready(self) -> bool:
        """Whether a probe of the tier above is due."""
        return self.degraded and self.breaker.allows_probe

    def begin_probe(self) -> None:
        """Trust the rung above for one probe calibration.

        The probe ends in :meth:`record_promotion` if that calibration
        holds the rung, or in :meth:`demote_to` /
        :meth:`record_failed_probe` if it does not.
        """
        self.probe_origin = self.tier_index
        self.tier_index -= 1

    def record_promotion(self, achieved_index: int) -> None:
        """A probe landed at ``achieved_index`` (< the old rung)."""
        self.probe_origin = None
        self.tier_index = achieved_index
        self.promotions += 1
        self.breaker.record_success()
        if achieved_index > 0:
            # Still degraded: re-arm the breaker so the next rung up
            # gets its own cooldown-then-probe cycle.
            self.breaker.state = CircuitBreaker.OPEN
        ob = get_observability()
        ob.metrics.inc("resilience_promotions_total")
        ob.metrics.set_gauge("resilience_tier", float(achieved_index))
        ob.slo.record_event("ladder-promotion")
        if ob.tracer.is_recording:
            with ob.tracer.span("resilience.promote",
                                to_tier=self.current.name):
                pass
        logger.info("estimator promoted",
                    extra={"fields": {"to": self.current.name}})

    def record_failed_probe(self) -> None:
        """A probe did not hold the rung above: back to the rung it
        left, and re-open the breaker."""
        if self.probe_origin is not None:
            self.tier_index, self.probe_origin = self.probe_origin, None
        was_open = self.breaker.state == CircuitBreaker.OPEN
        self.breaker.record_failure()
        if not was_open and self.breaker.state == CircuitBreaker.OPEN:
            get_observability().slo.record_event("breaker-open")

    # -- checkpoint plumbing -------------------------------------------
    def snapshot(self) -> dict:
        return {"tier_index": self.tier_index,
                "demotions": self.demotions,
                "promotions": self.promotions,
                "breaker": self.breaker.snapshot()}

    def restore(self, data: dict) -> None:
        self.tier_index = int(data["tier_index"])
        self.demotions = int(data["demotions"])
        self.promotions = int(data["promotions"])
        self.breaker.restore(data["breaker"])


def pinned_curves(num_configs: int, indices: np.ndarray,
                  rates: np.ndarray, powers: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The terminal tier's estimate: measurements, padded conservatively.

    Every measured configuration keeps its measurement; every unmeasured
    one is assumed as slow as the slowest measured configuration and as
    hungry as the hungriest, so the LP can never be lured onto an
    unmeasured configuration by optimism — the safe pinned fallback.
    """
    if indices.size == 0:
        raise InsufficientSamplesError(
            "pinned fallback needs at least one measured sample")
    rate_curve = np.full(num_configs, float(np.min(rates)))
    power_curve = np.full(num_configs, float(np.max(powers)))
    rate_curve[indices] = rates
    power_curve[indices] = powers
    return rate_curve, power_curve
