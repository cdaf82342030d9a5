"""Unit tests for the degradation ladder and its circuit breaker."""

import numpy as np
import pytest

from repro.errors import InsufficientSamplesError
from repro.obs import Observability, use
from repro.runtime.resilience import (
    PINNED_TIER,
    CircuitBreaker,
    DegradationLadder,
    Tier,
    pinned_curves,
)


def make_ladder(cooldown=3):
    tiers = [Tier("leo", object()), Tier("online", object()),
             Tier(PINNED_TIER, None)]
    return DegradationLadder(
        tiers, breaker=CircuitBreaker(cooldown_quanta=cooldown))


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_quanta=0)

    def test_trips_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_cooldown_half_opens(self):
        breaker = CircuitBreaker(cooldown_quanta=3)
        breaker.record_failure()
        for _ in range(2):
            breaker.note_healthy()
            assert not breaker.allows_probe
        breaker.note_healthy()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allows_probe

    def test_fault_during_cooldown_restarts_it(self):
        breaker = CircuitBreaker(cooldown_quanta=2)
        breaker.record_failure()
        breaker.note_healthy()
        breaker.note_fault()
        assert breaker.healthy_quanta == 0
        breaker.note_healthy()
        assert breaker.state == CircuitBreaker.OPEN  # 1 of 2 again

    def test_fault_reopens_half_open(self):
        breaker = CircuitBreaker(cooldown_quanta=1)
        breaker.record_failure()
        breaker.note_healthy()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.note_fault()
        assert breaker.state == CircuitBreaker.OPEN

    def test_success_closes_and_forgets(self):
        breaker = CircuitBreaker(cooldown_quanta=1)
        breaker.record_failure()
        breaker.note_healthy()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 0

    def test_healthy_quanta_only_cool_open_breakers(self):
        breaker = CircuitBreaker(cooldown_quanta=1)
        breaker.note_healthy()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_snapshot_round_trip(self):
        breaker = CircuitBreaker(cooldown_quanta=4)
        breaker.record_failure()
        breaker.note_healthy()
        clone = CircuitBreaker(cooldown_quanta=4)
        clone.restore(breaker.snapshot())
        assert clone.state == breaker.state
        assert clone.failures == breaker.failures
        assert clone.healthy_quanta == breaker.healthy_quanta


class TestDegradationLadder:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            DegradationLadder([])
        with pytest.raises(ValueError):
            DegradationLadder([Tier("leo", object())])  # last not pinned

    def test_starts_trusting_the_top(self):
        ladder = make_ladder()
        assert ladder.tier_index == 0
        assert not ladder.degraded
        assert ladder.current.name == "leo"
        assert [t.name for _, t in ladder.tiers_from_current()] == \
            ["leo", "online", PINNED_TIER]

    def test_demote_records_and_trips_breaker(self):
        ladder = make_ladder()
        ladder.demote_to(1, reason="ConvergenceError: injected")
        assert ladder.degraded
        assert ladder.current.name == "online"
        assert ladder.demotions == 1
        assert ladder.breaker.state == CircuitBreaker.OPEN
        assert [t.name for _, t in ladder.tiers_from_current()] == \
            ["online", PINNED_TIER]

    def test_demote_never_moves_up(self):
        ladder = make_ladder()
        ladder.demote_to(2, reason="x")
        ladder.demote_to(1, reason="y")
        assert ladder.tier_index == 2
        assert ladder.demotions == 1

    def test_promotion_cycle(self):
        ladder = make_ladder(cooldown=2)
        ladder.demote_to(1, reason="x")
        assert not ladder.promotion_ready
        ladder.note_healthy_quantum()
        ladder.note_healthy_quantum()
        assert ladder.promotion_ready
        ladder.record_promotion(0)
        assert not ladder.degraded
        assert ladder.promotions == 1
        assert ladder.breaker.state == CircuitBreaker.CLOSED

    def test_partial_promotion_rearms_breaker(self):
        # Climbing 2 -> 1 must not strand the ladder: the breaker
        # re-opens so tier 0 gets its own cooldown-then-probe cycle.
        ladder = make_ladder(cooldown=1)
        ladder.demote_to(2, reason="x")
        ladder.note_healthy_quantum()
        assert ladder.promotion_ready
        ladder.record_promotion(1)
        assert ladder.tier_index == 1
        assert ladder.breaker.state == CircuitBreaker.OPEN
        ladder.note_healthy_quantum()
        assert ladder.promotion_ready

    def test_failed_probe_restarts_cooldown(self):
        ladder = make_ladder(cooldown=1)
        ladder.demote_to(1, reason="x")
        ladder.note_healthy_quantum()
        assert ladder.promotion_ready
        ladder.record_failed_probe()
        assert not ladder.promotion_ready
        ladder.note_healthy_quantum()
        assert ladder.promotion_ready

    def test_failed_probe_records_breaker_open(self):
        ob = Observability.recording()
        ladder = make_ladder(cooldown=1)
        with use(ob):
            ladder.demote_to(1, reason="x")
            ladder.note_healthy_quantum()
            ladder.begin_probe()
            ladder.record_failed_probe()  # half-open -> open
            ladder.record_failed_probe()  # already open: no new event
        assert ladder.breaker.state == CircuitBreaker.OPEN
        assert ob.slo.events["breaker-open"] == 2

    def test_probe_that_falls_back_is_not_a_demotion(self):
        ladder = make_ladder(cooldown=1)
        ladder.demote_to(1, reason="x")
        ladder.note_healthy_quantum()
        ladder.begin_probe()
        assert ladder.current.name == "leo"
        ladder.demote_to(1, reason="the probe's fit fell back")
        assert (ladder.tier_index, ladder.demotions) == (1, 1)
        assert not ladder.promotion_ready
        ladder.begin_probe()
        ladder.demote_to(2, reason="it fell further")
        assert (ladder.tier_index, ladder.demotions) == (2, 2)

    def test_healthy_quanta_ignored_until_degraded(self):
        ladder = make_ladder(cooldown=1)
        ladder.note_healthy_quantum()
        assert ladder.breaker.healthy_quanta == 0

    def test_snapshot_round_trip(self):
        ladder = make_ladder(cooldown=2)
        ladder.demote_to(1, reason="x")
        ladder.note_healthy_quantum()
        clone = make_ladder(cooldown=2)
        clone.restore(ladder.snapshot())
        assert clone.tier_index == 1
        assert clone.demotions == 1
        assert clone.breaker.snapshot() == ladder.breaker.snapshot()


class TestPinnedCurves:
    def test_pads_conservatively(self):
        indices = np.array([1, 3])
        rates = np.array([4.0, 8.0])
        powers = np.array([50.0, 90.0])
        rate_curve, power_curve = pinned_curves(5, indices, rates, powers)
        assert rate_curve[1] == 4.0 and rate_curve[3] == 8.0
        assert power_curve[1] == 50.0 and power_curve[3] == 90.0
        # Unmeasured configs: slowest measured rate, hungriest power.
        for i in (0, 2, 4):
            assert rate_curve[i] == 4.0
            assert power_curve[i] == 90.0

    def test_needs_at_least_one_sample(self):
        with pytest.raises(InsufficientSamplesError):
            pinned_curves(5, np.array([], dtype=int),
                          np.array([]), np.array([]))
