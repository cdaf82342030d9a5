"""Estimation-quality metrics, headlined by the paper's Eq. (5).

The paper scores every estimator with

    accuracy(yhat, y) = max(1 - ||yhat - y||^2 / ||y - ybar||^2, 0),

i.e. the coefficient of determination (R^2) clipped at zero — an
estimator no better than predicting the mean scores 0, a perfect
estimator scores 1.  MAPE is provided as a companion metric for the
extended analyses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_aligned(y_hat: Sequence[float], y_true: Sequence[float]):
    yh = np.asarray(y_hat, dtype=float).ravel()
    yt = np.asarray(y_true, dtype=float).ravel()
    if yh.shape != yt.shape:
        raise ValueError(f"shape mismatch: {yh.shape} vs {yt.shape}")
    if yh.size == 0:
        raise ValueError("metrics need at least one point")
    if not (np.all(np.isfinite(yh)) and np.all(np.isfinite(yt))):
        raise ValueError("metrics need finite inputs")
    return yh, yt


def accuracy(y_hat: Sequence[float], y_true: Sequence[float]) -> float:
    """Paper Eq. (5): clipped R^2 of the estimate against the truth.

    Degenerate truth (zero variance) scores 1.0 for an exact match and
    0.0 otherwise.
    """
    yh, yt = _as_aligned(y_hat, y_true)
    sse = float(np.sum((yh - yt) ** 2))
    sst = float(np.sum((yt - yt.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return max(1.0 - sse / sst, 0.0)


def mape(y_hat: Sequence[float], y_true: Sequence[float]) -> float:
    """Mean absolute percentage error; requires nonzero truth entries."""
    yh, yt = _as_aligned(y_hat, y_true)
    if np.any(yt == 0):
        raise ValueError("MAPE undefined when the truth contains zeros")
    return float(np.mean(np.abs((yh - yt) / yt)))
