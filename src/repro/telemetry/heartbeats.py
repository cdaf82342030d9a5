"""Application Heartbeats analog: application-level performance feedback.

The paper instruments every benchmark with the Application Heartbeats
library [22, 27], which lets an application register a heartbeat at each
semantically meaningful unit of progress (a frame encoded, a batch of
samples clustered) and lets observers read the heartbeat rate over a
sliding window.  "All performance results are then estimated and measured
in terms of heartbeats/s" (Section 6.1).

:class:`HeartbeatMonitor` models that interface as a standalone
registry: heartbeats go in, windowed rates come out.  The runtime does
not read it; LEO's loops take each window's heartbeats and rate from
:meth:`repro.platform.machine.Machine.run_for`'s ``Measurement``, and
phase detection (Section 6.6) compares that rate with the model's.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Optional

from repro.faults.context import get_injector


@dataclasses.dataclass(frozen=True)
class HeartbeatRecord:
    """One heartbeat batch: timestamp and number of beats it carries."""

    time: float
    beats: float


class HeartbeatMonitor:
    """Sliding-window heartbeat registry.

    Args:
        window: Number of most-recent records the windowed rate uses.
        min_target: Optional lower performance target (heartbeats/s).
        max_target: Optional upper performance target.
    """

    def __init__(self, window: int = 20, min_target: Optional[float] = None,
                 max_target: Optional[float] = None) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if (min_target is not None and max_target is not None
                and min_target > max_target):
            raise ValueError(
                f"min_target {min_target} exceeds max_target {max_target}"
            )
        self.window = window
        self.min_target = min_target
        self.max_target = max_target
        self._records: Deque[HeartbeatRecord] = collections.deque(maxlen=window)
        self._last_time: Optional[float] = None
        self.total_beats = 0.0

    def heartbeat(self, time: float, beats: float = 1.0) -> None:
        """Register ``beats`` heartbeats completed at simulated ``time``."""
        if beats < 0:
            raise ValueError(f"beats must be non-negative, got {beats}")
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"heartbeat time went backwards: {time} < {self._last_time}"
            )
        if get_injector().active("telemetry.heartbeat", clock=time):
            # Injected heartbeat stall: the application is running but
            # its beats never reach the monitor, so the windowed rate
            # goes stale until the stall clears.
            return
        self._records.append(HeartbeatRecord(time=time, beats=beats))
        self._last_time = time
        self.total_beats += beats

    def window_rate(self) -> float:
        """Heartbeat rate (beats/s) over the sliding window.

        The first record in the window anchors the interval; its beats
        are excluded from the numerator (they completed before the
        window's span started).  Returns 0.0 until two records exist.
        """
        if len(self._records) < 2:
            return 0.0
        first = self._records[0]
        span = self._records[-1].time - first.time
        if span <= 0:
            return 0.0
        beats = sum(r.beats for r in self._records) - first.beats
        return beats / span

    def meets_target(self) -> bool:
        """Whether the current windowed rate satisfies both targets."""
        rate = self.window_rate()
        if self.min_target is not None and rate < self.min_target:
            return False
        if self.max_target is not None and rate > self.max_target:
            return False
        return True

    def reset(self) -> None:
        """Forget all heartbeats (e.g. at a phase boundary)."""
        self._records.clear()
        self._last_time = None
        self.total_beats = 0.0
