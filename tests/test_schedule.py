"""Tests for repro.optimize.schedule."""

import pytest

from repro.optimize.schedule import Schedule, Slot


class TestSlot:
    def test_idle_slot(self):
        slot = Slot(None, 3.0)
        assert slot.config_index is None

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Slot(0, -1.0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Slot(-2, 1.0)


class TestSchedule:
    def test_drops_zero_duration_slots(self):
        schedule = Schedule([Slot(0, 0.0), Slot(1, 2.0)])
        assert len(schedule) == 1

    def test_total_and_busy_time(self):
        schedule = Schedule([Slot(0, 2.0), Slot(None, 3.0), Slot(1, 1.0)])
        assert schedule.total_time == pytest.approx(6.0)
        assert schedule.busy_time == pytest.approx(3.0)

    def test_work_accumulates_rates(self):
        schedule = Schedule([Slot(0, 2.0), Slot(1, 1.0), Slot(None, 5.0)])
        assert schedule.work([10.0, 40.0]) == pytest.approx(60.0)

    def test_energy_charges_idle_power(self):
        schedule = Schedule([Slot(0, 2.0), Slot(None, 3.0)])
        energy = schedule.energy([100.0], idle_power=50.0)
        assert energy == pytest.approx(200.0 + 150.0)

    def test_energy_rejects_negative_idle(self):
        with pytest.raises(ValueError):
            Schedule([Slot(None, 1.0)]).energy([], idle_power=-1.0)

    def test_repr_mentions_slots(self):
        text = repr(Schedule([Slot(3, 1.0), Slot(None, 2.0)]))
        assert "c3" in text and "idle" in text
