"""The runtime clock protocol: wall time and deterministic virtual time.

Every loop in the system that waits — the service client's retry
backoff, the SLO tracker's burn-rate windows, the soak harness's
multi-day schedules — reads time through a :class:`Clock` instead of
calling ``time.*`` directly.  Two implementations exist:

* :class:`WallClock` delegates to :func:`time.monotonic`,
  :func:`time.time`, and :func:`time.sleep` — byte-for-byte the
  behaviour the system had before clocks were threadable.
* :class:`VirtualClock` is a deterministic virtual clock: ``sleep()``
  advances virtual time instantly, so two runs that sleep the same
  amounts read the same timeline.  Days of simulated time cost
  microseconds of wall time.

Like the observability bundle (:mod:`repro.obs.context`) and the fault
injector (:mod:`repro.faults.context`), the active clock is ambient: it
lives in a :mod:`contextvars` variable installed with :func:`use` and
read with :func:`get_clock`.  The default is :data:`WALL_CLOCK`, so
code that never installs a virtual clock behaves exactly as before::

    from repro.clock import VirtualClock, use

    with use(VirtualClock()) as clock:
        client.call("ping", {})        # retries consume no wall time
        clock.advance(3600.0)          # one simulated hour, instantly
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Iterator, Optional

__all__ = [
    "Clock",
    "WallClock",
    "VirtualClock",
    "WALL_CLOCK",
    "get_clock",
    "resolve",
    "use",
]


class Clock:
    """The protocol every clock implements.

    ``now()`` is monotonic seconds (comparable only against the same
    clock), ``time()`` is epoch seconds (for human-facing timestamps),
    and ``sleep()`` blocks — really, for :class:`WallClock`; virtually,
    for :class:`VirtualClock`.
    """

    #: True for clocks whose ``sleep`` consumes no wall time.  Loops
    #: that tune themselves to real hardware (profilers, perf gates)
    #: check this to keep measuring with ``time.perf_counter``.
    is_virtual: bool = False

    def now(self) -> float:
        raise NotImplementedError

    def time(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class WallClock(Clock):
    """The real clock — thin delegation to the :mod:`time` module."""

    is_virtual = False

    def now(self) -> float:
        return time.monotonic()

    def time(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def __repr__(self) -> str:
        return "WallClock()"


class VirtualClock(Clock):
    """A deterministic virtual clock.

    ``sleep(s)`` advances virtual time by ``s`` instantly — the
    fast-forward that turns days of idle simulated time into free CI
    time.  Time never goes backwards: ``advance_to`` clamps to the
    current instant.

    Args:
        start: Initial monotonic reading (``now()``).
        epoch: Initial epoch reading (``time()``); advances in lockstep
            with ``now()``.
    """

    is_virtual = True

    def __init__(self, start: float = 0.0, epoch: float = 0.0) -> None:
        self._now = float(start)
        self._epoch_offset = float(epoch) - float(start)
        self._sleeps = 0

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._now

    def time(self) -> float:
        return self._now + self._epoch_offset

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        self._sleeps += 1
        self.advance(seconds)

    # ------------------------------------------------------------------
    # Virtual-time control
    # ------------------------------------------------------------------
    @property
    def sleep_count(self) -> int:
        """How many ``sleep`` calls this clock has absorbed."""
        return self._sleeps

    def advance(self, seconds: float) -> None:
        """Jump forward ``seconds``."""
        self.advance_to(self._now + max(0.0, float(seconds)))

    def advance_to(self, instant: float) -> None:
        """Jump to ``instant`` (clamped to never move backwards)."""
        self._now = max(float(instant), self._now)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now!r})"


#: The process-wide default clock.
WALL_CLOCK = WallClock()

_STATE: contextvars.ContextVar[Clock] = contextvars.ContextVar(
    "repro_clock", default=WALL_CLOCK)


def get_clock() -> Clock:
    """The ambient clock (:data:`WALL_CLOCK` unless one is installed)."""
    return _STATE.get()


@contextlib.contextmanager
def use(clock: Optional[Clock]) -> Iterator[Clock]:
    """Install ``clock`` as the ambient clock for the block.

    ``None`` leaves the current clock in place, mirroring
    :func:`repro.obs.use` / :func:`repro.faults.use` so optional wiring
    reads the same at every layer.
    """
    if clock is None:
        yield _STATE.get()
        return
    token = _STATE.set(clock)
    try:
        yield clock
    finally:
        _STATE.reset(token)


def resolve(clock: Optional[Clock]) -> Clock:
    """``clock`` if given, else the ambient clock.

    The one-liner every constructor with a ``clock=None`` parameter
    calls, so explicit injection always beats ambience.
    """
    return clock if clock is not None else _STATE.get()
