"""Fault-plan tests for the runtime: degrade, survive, promote back.

The acceptance criteria of the resilience work, on fixed seeds: under
every fault class the RuntimeController never raises an unhandled
exception — it walks down the estimator ladder, keeps actuating a valid
configuration, and promotes back to the configured estimator within a
bounded number of healthy quanta once the faults clear.
"""

import numpy as np
import pytest

from repro.errors import InsufficientSamplesError
from repro.estimators.leo import LEOEstimator
from repro.faults import FaultInjector, FaultPlan, FaultSpec, use
from repro.faults.plans import default_plan
from repro.obs import Observability, use as use_observability
from repro.platform.machine import Machine
from repro.platform.topology import PAPER_TOPOLOGY
from repro.runtime.controller import RuntimeController
from repro.runtime.resilience import PINNED_TIER
from repro.runtime.sampling import RandomSampler
from repro.workloads.suite import get_benchmark


def build_controller(cores_space, cores_dataset, promotion_cooldown=3,
                     seed=1234):
    view = cores_dataset.leave_one_out("kmeans")
    return RuntimeController(
        machine=Machine(PAPER_TOPOLOGY, seed=seed), space=cores_space,
        estimator=LEOEstimator(),
        prior_rates=view.prior_rates, prior_powers=view.prior_powers,
        sampler=RandomSampler(seed=0), sample_count=6,
        promotion_cooldown=promotion_cooldown)


def plan(*specs, seed=0):
    return FaultPlan(name="test", seed=seed, specs=specs)


def _probed_run(cores_space, cores_dataset, kmeans, *specs):
    """Calibrate under ``specs``, then run one 60 s window whose
    promotion probes climb back up the ladder."""
    controller = build_controller(cores_space, cores_dataset,
                                  promotion_cooldown=3)
    ob = Observability.recording()
    with use_observability(ob), use(FaultInjector(plan(*specs))) as injector:
        estimate = controller.calibrate(kmeans)
        work = 0.4 * estimate.rates.max() * 60.0
        controller.run(kmeans, work, 60.0, estimate)
    return controller.ladder, ob, injector


def _demote_spans(ob):
    return [(s.attributes["from_tier"], s.attributes["to_tier"])
            for s in ob.tracer.spans if s.name == "resilience.demote"]


class TestCalibrationFaults:
    def test_total_dropout_raises_insufficient_samples(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("sensor-dropout", probability=1.0)))):
            with pytest.raises(InsufficientSamplesError):
                controller.calibrate(kmeans)

    def test_partial_dropout_calibrates_on_survivors(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset)
        # Drop the first two sample windows only (clock < 2 s).
        with use(FaultInjector(plan(
                FaultSpec("sensor-dropout", end=2.0, probability=1.0)))):
            estimate = controller.calibrate(kmeans)
        assert estimate.estimator_name == "leo"
        assert np.all(np.isfinite(estimate.rates))
        assert np.all(estimate.rates > 0)

    def test_em_nonconvergence_demotes_to_online(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("em-nonconvergence", probability=1.0)))):
            estimate = controller.calibrate(kmeans)
        assert estimate.estimator_name == "online"
        assert controller.ladder.degraded
        assert controller.ladder.demotions == 1
        assert np.all(np.isfinite(estimate.rates))

    def test_poisoned_covariance_demotes(
            self, cores_space, cores_dataset, kmeans):
        # magnitude < 0 makes Sigma non-finite: the jitter escalation
        # cannot repair it, CovarianceError falls down the ladder.
        controller = build_controller(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("singular-covariance", probability=1.0,
                          magnitude=-1.0)))):
            estimate = controller.calibrate(kmeans)
        assert estimate.estimator_name != "leo"
        assert controller.ladder.degraded

    def test_singular_covariance_repaired_in_place(
            self, cores_space, cores_dataset, kmeans):
        # magnitude = 0 zeroes Sigma — singular but repairable, so the
        # jitter guard absorbs it and LEO itself still fits.
        controller = build_controller(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("singular-covariance", probability=1.0,
                          magnitude=0.0)))):
            estimate = controller.calibrate(kmeans)
        assert estimate.estimator_name == "leo"
        assert not controller.ladder.degraded
        assert np.all(np.isfinite(estimate.rates))

    def test_every_estimator_down_falls_to_pinned(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("estimator-crash", probability=1.0)))):
            estimate = controller.calibrate(kmeans)
        assert estimate.estimator_name == PINNED_TIER
        assert controller.ladder.current.name == PINNED_TIER
        # The pinned curve is conservative: no unmeasured configuration
        # looks faster than the slowest measurement.
        assert estimate.rates.min() == estimate.rates[0] or \
            np.sum(estimate.rates == estimate.rates.min()) >= 1
        assert np.all(np.isfinite(estimate.powers))

    def test_pinned_estimate_still_drives_a_run(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("estimator-crash", probability=1.0)))):
            estimate = controller.calibrate(kmeans)
            work = 0.3 * estimate.rates.max() * 40.0
            report = controller.run(kmeans, work, 40.0, estimate)
        assert report.energy > 0
        assert report.work_done > 0


class TestRunFaults:
    def test_run_survives_sensor_dropouts(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset)
        estimate = controller.calibrate(kmeans)
        # Drop every reading for a mid-run stretch of simulated time.
        with use(FaultInjector(plan(
                FaultSpec("sensor-dropout", start=10.0, end=20.0,
                          probability=1.0)))):
            work = 0.4 * estimate.rates.max() * 50.0
            report = controller.run(kmeans, work, 50.0, estimate)
        assert report.energy > 0
        # Lost quanta charge time but credit no work, so the trace
        # still covers the deadline.
        assert sum(len(t) for t in (report.power_trace,)) > 0

    def test_promotes_back_after_faults_clear(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset,
                                      promotion_cooldown=3)
        # One estimator crash demotes the first calibration; the fault
        # then exhausts (max_events=1), so the run's promotion probe
        # must climb back to LEO.
        with use(FaultInjector(plan(
                FaultSpec("estimator-crash", probability=1.0,
                          max_events=1)))):
            estimate = controller.calibrate(kmeans)
            assert controller.ladder.degraded
            work = 0.4 * estimate.rates.max() * 60.0
            report = controller.run(kmeans, work, 60.0, estimate)
        assert controller.ladder.tier_index == 0
        assert controller.ladder.promotions >= 1
        assert report.energy > 0

    def test_probe_that_falls_back_is_not_a_demotion(
            self, cores_space, cores_dataset, kmeans):
        # estimator.fit events: 0 crashes the first calibration's LEO
        # fit (online fits at 1-2); 3 crashes the first probe's LEO fit,
        # which falls back to online (4-5); the next probe promotes.
        ladder, ob, injector = _probed_run(
            cores_space, cores_dataset, kmeans,
            FaultSpec("estimator-crash", end=1.0, probability=1.0),
            FaultSpec("estimator-crash", start=3.0, end=4.0,
                      probability=1.0))
        assert injector.fired_counts == {"estimator-crash": 2}
        assert ladder.tier_index == 0
        assert (ladder.demotions, ladder.promotions) == (1, 1)
        counters = ob.metrics.snapshot()["counters"]
        assert counters["resilience_demotions_total"] == 1
        assert counters["resilience_promotions_total"] == 1
        assert ob.slo.events["ladder-demotion"] == 1
        # The demotion opens the breaker, and so does the failed probe.
        assert ob.slo.events["breaker-open"] == 2
        assert _demote_spans(ob) == [("leo", "online")]

    def test_probe_landing_below_its_rung_is_one_demotion(
            self, cores_space, cores_dataset, kmeans):
        # The first probe's LEO and online fits both crash (events 3-4),
        # so it lands on offline: one demotion, from online.
        ladder, ob, injector = _probed_run(
            cores_space, cores_dataset, kmeans,
            FaultSpec("estimator-crash", end=1.0, probability=1.0),
            FaultSpec("estimator-crash", start=3.0, end=5.0,
                      probability=1.0))
        assert injector.fired_counts == {"estimator-crash": 3}
        assert _demote_spans(ob) == [("leo", "online"),
                                     ("online", "offline")]
        assert ladder.demotions == 2
        assert ob.metrics.snapshot()["counters"][
            "resilience_demotions_total"] == 2

    def test_full_default_plan_never_raises(
            self, cores_space, cores_dataset, kmeans):
        controller = build_controller(cores_space, cores_dataset)
        with use(FaultInjector(default_plan(seed=5))) as injector:
            estimate = controller.calibrate(kmeans)
            work = 0.4 * estimate.rates.max() * 40.0
            for _ in range(3):
                report = controller.run(kmeans, work, 40.0, estimate,
                                        adapt=True)
                assert report.energy > 0
            assert injector.total_fired > 0
