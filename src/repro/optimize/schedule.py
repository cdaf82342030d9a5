"""Schedules: how the runtime divides time among configurations.

The Eq. (1) linear program's decision variables are the residencies t_c —
time spent in each configuration.  Its optimum has at most two nonzero
residencies (two constraints), so a :class:`Schedule` is a short list of
:class:`Slot` entries; ``config_index`` of ``None`` denotes idling.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class Slot:
    """A residency: run configuration ``config_index`` for ``duration`` s.

    ``config_index=None`` means the system idles for the slot.
    """

    config_index: Optional[int]
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.config_index is not None and self.config_index < 0:
            raise ValueError(
                f"config_index must be None or >= 0, got {self.config_index}"
            )


class Schedule:
    """An ordered set of residencies filling (part of) a deadline window."""

    def __init__(self, slots: Sequence[Slot]) -> None:
        self.slots: List[Slot] = [s for s in slots if s.duration > 0]

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    @property
    def total_time(self) -> float:
        """Wall-clock length of the schedule."""
        return sum(slot.duration for slot in self.slots)

    @property
    def busy_time(self) -> float:
        """Time spent in non-idle configurations."""
        return sum(s.duration for s in self.slots if s.config_index is not None)

    def work(self, rates: Sequence[float]) -> float:
        """Heartbeats completed under per-configuration ``rates``."""
        r = np.asarray(rates, dtype=float)
        total = 0.0
        for slot in self.slots:
            if slot.config_index is not None:
                total += r[slot.config_index] * slot.duration
        return total

    def energy(self, powers: Sequence[float], idle_power: float) -> float:
        """Joules consumed under per-configuration ``powers``.

        Idle slots are charged at ``idle_power``.
        """
        if idle_power < 0:
            raise ValueError(f"idle_power must be >= 0, got {idle_power}")
        p = np.asarray(powers, dtype=float)
        total = 0.0
        for slot in self.slots:
            watts = idle_power if slot.config_index is None else p[slot.config_index]
            total += watts * slot.duration
        return total

    def __repr__(self) -> str:
        parts = ", ".join(
            f"(idle, {s.duration:.3g}s)" if s.config_index is None
            else f"(c{s.config_index}, {s.duration:.3g}s)"
            for s in self.slots
        )
        return f"Schedule[{parts}]"
