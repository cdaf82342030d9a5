"""Terminal plotting: sparklines and character-density heatmaps.

The reproduction is headless (no matplotlib dependency), but the paper's
figures are curves; these helpers render them legibly in a terminal so
examples and benchmark printouts can *show* shape, not just numbers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_SPARK_BLOCKS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """One-line density rendering of a curve, min-max normalized."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("cannot sparkline an empty sequence")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    idx = np.linspace(0, v.size - 1, min(width, v.size)).astype(int)
    sampled = v[idx]
    span = float(np.ptp(sampled))
    if span == 0:
        return _SPARK_BLOCKS[0] * len(sampled)
    scaled = (sampled - sampled.min()) / span
    return "".join(
        _SPARK_BLOCKS[int(s * (len(_SPARK_BLOCKS) - 1))] for s in scaled)


def heatmap(matrix, width: int = 48, height: int = 24,
            title: str = "", symmetric: bool = False) -> str:
    """Render a matrix as a character-density heatmap.

    Args:
        matrix: 2-D array.  Downsampled (by striding) to fit
            ``height`` x ``width`` cells.
        symmetric: Scale around zero (for correlation matrices):
            ``-1 -> ' '``, ``0 -> mid``, ``+1 -> '@'``.  Otherwise
            min-max scaled.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"matrix must be non-empty 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite")
    rows = np.linspace(0, m.shape[0] - 1, min(height, m.shape[0])).astype(int)
    cols = np.linspace(0, m.shape[1] - 1, min(width, m.shape[1])).astype(int)
    sampled = m[np.ix_(rows, cols)]
    if symmetric:
        scale = max(float(np.abs(sampled).max()), 1e-12)
        normalized = (sampled / scale + 1.0) / 2.0
    else:
        lo, hi = float(sampled.min()), float(sampled.max())
        span = max(hi - lo, 1e-12)
        normalized = (sampled - lo) / span
    lines = [title] if title else []
    for row in normalized:
        lines.append("".join(
            _SPARK_BLOCKS[int(v * (len(_SPARK_BLOCKS) - 1))] for v in row))
    return "\n".join(lines)
