"""Energy accounting: integrating power logs and execution records.

Energy is the objective of the paper's optimization (Eq. 1): the sum over
configurations of power times residency.  This module provides
integration utilities over meter logs and measurement records.  The
runtime and the experiments do not call them: they account energy on
the :class:`~repro.platform.machine.Machine` itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.platform.machine import Measurement
from repro.telemetry.power_meter import PowerSample


def integrate_power(times: Sequence[float], watts: Sequence[float]) -> float:
    """Trapezoidal energy (J) of a power-vs-time trace.

    Args:
        times: Monotonically non-decreasing timestamps in seconds.
        watts: Power readings aligned with ``times``.
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(watts, dtype=float)
    if t.shape != p.shape:
        raise ValueError(f"times {t.shape} and watts {p.shape} must align")
    if t.size == 0:
        return 0.0
    if t.size == 1:
        return 0.0
    if np.any(np.diff(t) < 0):
        raise ValueError("times must be non-decreasing")
    if np.any(p < 0):
        raise ValueError("power readings must be non-negative")
    # np.trapz was removed in NumPy 2.0 in favour of np.trapezoid.
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(p, t))


def energy_of_log(log: Iterable[PowerSample]) -> float:
    """Trapezoidal energy of a meter log."""
    samples = list(log)
    return integrate_power([s.time for s in samples],
                           [s.watts for s in samples])


def energy_of_measurements(measurements: Iterable[Measurement]) -> float:
    """Exact energy of a sequence of machine execution windows."""
    return float(sum(m.energy for m in measurements))


def average_power(log: Iterable[PowerSample]) -> float:
    """Time-weighted mean power of a meter log (W)."""
    samples = list(log)
    if len(samples) < 2:
        if samples:
            return samples[0].watts
        raise ValueError("cannot average an empty log")
    span = samples[-1].time - samples[0].time
    if span <= 0:
        return float(np.mean([s.watts for s in samples]))
    return energy_of_log(samples) / span
