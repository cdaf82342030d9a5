"""Tests for repro.faults: specs, plans, and the deterministic injector."""

import numpy as np
import pytest

from repro.errors import FaultPlanError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, get_injector, use
from repro.faults.injector import NULL_INJECTOR
from repro.faults.plan import KIND_SITES, KINDS, WINDOWED_KINDS
from repro.faults.plans import default_plan, get_plan, plan_names


class TestFaultSpec:
    def test_site_fixed_by_kind(self):
        assert FaultSpec("sensor-dropout").site == "machine.measure"
        assert FaultSpec("connection-drop").site == "service.call"
        assert FaultSpec("partial-write").site == "persistence.write"

    def test_windowed_kinds(self):
        assert FaultSpec("cap-transient").windowed
        assert not FaultSpec("sensor-dropout").windowed

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec("disk-on-fire")

    @pytest.mark.parametrize("kwargs", [
        {"probability": -0.1},
        {"probability": 1.5},
        {"start": -1.0},
        {"start": 10.0, "end": 5.0},
        {"max_events": 0},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(FaultPlanError):
            FaultSpec("sensor-dropout", **kwargs)


class TestFaultPlan:
    def test_name_required(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(name="")

    def test_specs_must_be_typed(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(name="x", specs=({"kind": "sensor-dropout"},))


class TestShippedPlans:
    def test_default_plan_covers_full_taxonomy(self):
        assert default_plan().kinds == KINDS

    def test_every_kind_has_a_site(self):
        assert set(KINDS) == set(KIND_SITES)
        assert set(WINDOWED_KINDS) <= set(KINDS)

    def test_get_plan_by_name(self):
        for name in plan_names():
            plan = get_plan(name, seed=7)
            assert plan.name == name
            assert plan.seed == 7

    def test_unknown_plan_rejected(self):
        with pytest.raises(FaultPlanError):
            get_plan("nope")


class TestInjectorDeterminism:
    def _firing_trace(self, plan, events=200):
        injector = FaultInjector(plan)
        trace = []
        for i in range(events):
            fired = injector.fire("machine.measure", clock=float(i) * 0.5)
            fired += injector.fire("em.fit")
            trace.append(tuple(spec.kind for spec in fired))
        return injector, trace

    def test_same_plan_same_firings(self):
        plan = default_plan(seed=11)
        _, first = self._firing_trace(plan)
        _, second = self._firing_trace(plan)
        assert first == second
        assert any(first), "the default plan should fire something"

    def test_different_seeds_diverge(self):
        _, a = self._firing_trace(default_plan(seed=1))
        _, b = self._firing_trace(default_plan(seed=2))
        assert a != b

    def test_spec_streams_are_independent(self):
        # Appending a spec must not perturb the firing sequence of the
        # specs before it (each stream derives from the spec's own
        # position and kind).
        base = FaultPlan(name="a", seed=5, specs=(
            FaultSpec("sensor-dropout", probability=0.3),))
        extended = FaultPlan(name="b", seed=5, specs=(
            FaultSpec("sensor-dropout", probability=0.3),
            FaultSpec("em-nonconvergence", probability=0.3),))

        def dropout_trace(plan):
            injector = FaultInjector(plan)
            return [bool(injector.fire("machine.measure", clock=float(i)))
                    for i in range(100)]

        assert dropout_trace(base) == dropout_trace(extended)


class TestInjectorSemantics:
    def test_max_events_caps_firings(self):
        plan = FaultPlan(name="capped", specs=(
            FaultSpec("connection-drop", probability=1.0, max_events=3),))
        injector = FaultInjector(plan)
        fired = sum(bool(injector.fire("service.call")) for _ in range(10))
        assert fired == 3
        assert injector.fired_counts == {"connection-drop": 3}
        assert injector.total_fired == 3

    def test_window_positions_by_clock(self):
        plan = FaultPlan(name="windowed", specs=(
            FaultSpec("sensor-dropout", start=5.0, end=10.0,
                      probability=1.0),))
        injector = FaultInjector(plan)
        assert not injector.fire("machine.measure", clock=4.9)
        assert injector.fire("machine.measure", clock=5.0)
        assert injector.fire("machine.measure", clock=9.9)
        assert not injector.fire("machine.measure", clock=10.0)

    def test_clockless_site_positions_by_event_index(self):
        plan = FaultPlan(name="indexed", specs=(
            FaultSpec("em-nonconvergence", start=2.0, probability=1.0),))
        injector = FaultInjector(plan)
        assert not injector.fire("em.fit")  # event 0
        assert not injector.fire("em.fit")  # event 1
        assert injector.fire("em.fit")      # event 2

    def test_windowed_kinds_only_answer_active(self):
        plan = FaultPlan(name="brownout", specs=(
            FaultSpec("cap-transient", start=1.0, end=2.0),))
        injector = FaultInjector(plan)
        assert not injector.fire("cluster.cap", clock=1.5)
        assert injector.active("cluster.cap", clock=1.5)
        assert not injector.active("cluster.cap", clock=2.5)
        # active() is a pure query: no counters, no metrics.
        assert injector.total_fired == 0

    def test_target_restricts_victim(self):
        plan = FaultPlan(name="victim", specs=(
            FaultSpec("tenant-crash", target="kmeans", probability=1.0,
                      max_events=1),))
        injector = FaultInjector(plan)
        fired = injector.fire("cluster.tenant", clock=0.0)
        assert fired and fired[0].target == "kmeans"


class TestAmbientContext:
    def test_default_is_the_null_injector(self):
        assert get_injector() is NULL_INJECTOR
        assert not NULL_INJECTOR.enabled
        assert NULL_INJECTOR.fire("machine.measure", clock=1.0) == ()
        assert NULL_INJECTOR.active("cluster.cap", clock=1.0) == ()
        assert NULL_INJECTOR.fired_counts == {}

    def test_use_installs_and_restores(self):
        injector = FaultInjector(FaultPlan(name="x"))
        with use(injector) as active:
            assert active is injector
            assert get_injector() is injector
        assert get_injector() is NULL_INJECTOR

    def test_use_none_keeps_current(self):
        injector = FaultInjector(FaultPlan(name="x"))
        with use(injector):
            with use(None) as active:
                assert active is injector

    def test_firing_counts_metrics(self):
        from repro.obs import Observability
        from repro.obs import use as use_obs
        plan = FaultPlan(name="metered", specs=(
            FaultSpec("connection-drop", probability=1.0, max_events=1),))
        observability = Observability.recording()
        with use_obs(observability):
            FaultInjector(plan).fire("service.call")
        counters = observability.metrics.snapshot()["counters"]
        assert counters["fault_injected_total"] == 1
        assert counters["fault_connection_drop_total"] == 1
