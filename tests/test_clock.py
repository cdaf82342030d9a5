"""Tests for repro.clock: the protocol, the virtual clock, ambience.

The virtual clock is the soak harness's foundation: ``sleep`` must be
free, time must never run backwards, and explicit injection must always
beat the ambient default.
"""

import time

import pytest

from repro import clock as clockmod
from repro.clock import (
    WALL_CLOCK,
    Clock,
    VirtualClock,
    WallClock,
    get_clock,
    resolve,
    use,
)


class TestWallClock:
    def test_tracks_real_time(self):
        clk = WallClock()
        before = time.monotonic()
        now = clk.now()
        after = time.monotonic()
        assert before <= now <= after

    def test_epoch_time_tracks_time_time(self):
        assert abs(WallClock().time() - time.time()) < 5.0

    def test_not_virtual(self):
        assert WallClock().is_virtual is False

    def test_negative_sleep_is_a_noop(self):
        started = time.monotonic()
        WallClock().sleep(-10.0)
        assert time.monotonic() - started < 1.0


class TestVirtualClock:
    def test_starts_where_told(self):
        clk = VirtualClock(start=100.0, epoch=1.7e9)
        assert clk.now() == 100.0
        assert clk.time() == pytest.approx(1.7e9)

    def test_sleep_advances_instantly(self):
        clk = VirtualClock()
        started = time.monotonic()
        clk.sleep(86400.0)  # a simulated day
        assert clk.now() == 86400.0
        assert time.monotonic() - started < 1.0
        assert clk.sleep_count == 1

    def test_epoch_advances_in_lockstep(self):
        clk = VirtualClock(start=0.0, epoch=50.0)
        clk.advance(10.0)
        assert clk.time() == pytest.approx(60.0)

    def test_negative_sleep_clamps(self):
        clk = VirtualClock(start=5.0)
        clk.sleep(-3.0)
        assert clk.now() == 5.0

    def test_advance_to_never_goes_backwards(self):
        clk = VirtualClock(start=10.0)
        clk.advance_to(3.0)
        assert clk.now() == 10.0


class TestAmbience:
    def test_default_is_the_wall_clock(self):
        assert get_clock() is WALL_CLOCK

    def test_use_installs_and_restores(self):
        clk = VirtualClock()
        with use(clk) as installed:
            assert installed is clk
            assert get_clock() is clk
        assert get_clock() is WALL_CLOCK

    def test_use_none_is_a_passthrough(self):
        outer = VirtualClock()
        with use(outer):
            with use(None) as seen:
                assert seen is outer
                assert get_clock() is outer

    def test_resolve_prefers_explicit(self):
        explicit = VirtualClock()
        ambient = VirtualClock()
        with use(ambient):
            assert resolve(explicit) is explicit
            assert resolve(None) is ambient
        assert resolve(None) is WALL_CLOCK

    def test_nested_use_restores_in_order(self):
        a, b = VirtualClock(), VirtualClock()
        with use(a):
            with use(b):
                assert get_clock() is b
            assert get_clock() is a

    def test_protocol_base_raises(self):
        base = Clock()
        for method in (base.now, base.time):
            with pytest.raises(NotImplementedError):
                method()
        with pytest.raises(NotImplementedError):
            base.sleep(1.0)

    def test_package_root_reexports(self):
        import repro

        assert repro.VirtualClock is VirtualClock
        assert repro.get_clock is clockmod.get_clock
        with repro.use_clock(VirtualClock()) as clk:
            assert get_clock() is clk
