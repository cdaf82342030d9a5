"""Lightweight ``perf_counter``-based profiling hooks.

The hot paths (the masked-posterior factorization in
:mod:`repro.core.linalg`, the hull construction in
:mod:`repro.optimize.pareto`, the estimator fit) record their wall-clock
cost into histograms of the ambient metrics registry.  The hooks are
written so the disabled path never calls ``perf_counter``:

    started = start_timer()            # None when metrics are disabled
    ...                                # the timed work
    stop_timer("linalg_posterior_seconds", started)
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.context import get_metrics

__all__ = ["start_timer", "stop_timer"]


def start_timer() -> Optional[float]:
    """``perf_counter()`` if the ambient metrics registry records, else None."""
    if get_metrics().is_recording:
        return time.perf_counter()
    return None


def stop_timer(name: str, started: Optional[float]) -> None:
    """Record the elapsed seconds into histogram ``name``.

    A ``None`` bookmark (metrics were disabled at :func:`start_timer`
    time) is a no-op.
    """
    if started is not None:
        get_metrics().observe(name, time.perf_counter() - started)

