"""Pareto-optimal power/performance tradeoffs and their convex hull.

After estimation, LEO "finds the set of configurations that represent
Pareto-optimal performance and power tradeoffs, and finally walks along
the convex hull of this optimal tradeoff space until the performance goal
is reached" (Section 5.3).  This module implements both steps:

* :func:`pareto_optimal_mask` — which configurations are undominated
  (no other configuration is at least as fast and strictly cheaper, or
  strictly faster and at most as expensive);
* :class:`TradeoffFrontier` — the lower convex hull of the (rate, power)
  cloud, anchored at the idle point (rate 0 at idle power), supporting
  interpolation at any achievable rate.  Points on this hull are exactly
  the average behaviours achievable by time-division between two
  configurations, which is what the Eq. (1) linear program optimizes
  over.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_metrics, start_timer, stop_timer

# Clouds of at most this many configurations go straight to the monotone
# chain, because the numpy candidate prefilter only pays off on larger
# ones.  Per hull on a 2-vCPU VM: 35 us against the chain's 23 us at 4
# points, within noise of it from 20 to 32 points, and 198 us against
# 1015 us at 1024.
_SMALL_CLOUD = 32


def pareto_optimal_mask(rates: Sequence[float],
                        powers: Sequence[float]) -> np.ndarray:
    """Boolean mask of Pareto-optimal configurations.

    A configuration dominates another if it has rate >= and power <= the
    other's, with at least one strict.  Ties (identical rate and power)
    are all kept.
    """
    r = np.asarray(rates, dtype=float)
    p = np.asarray(powers, dtype=float)
    if r.shape != p.shape or r.ndim != 1:
        raise ValueError("rates and powers must be equal-length 1-D arrays")
    mask = np.zeros(r.size, dtype=bool)
    best_strictly_faster = np.inf
    # Walk rate groups from fastest to slowest.  A point survives iff no
    # strictly faster point is as cheap, and no equal-rate point is cheaper.
    for rate in np.unique(r)[::-1]:
        group = np.where(r == rate)[0]
        group_pmin = p[group].min()
        for idx in group:
            mask[idx] = (p[idx] < best_strictly_faster
                         and p[idx] == group_pmin)
        best_strictly_faster = min(best_strictly_faster, group_pmin)
    return mask


@dataclasses.dataclass(frozen=True)
class HullPoint:
    """One vertex of the tradeoff frontier.

    ``config_index`` is ``None`` for the idle anchor (rate 0).
    """

    rate: float
    power: float
    config_index: Optional[int]


class TradeoffFrontier:
    """Lower convex hull of (rate, power) points, anchored at idle.

    Args:
        rates: Per-configuration performance (heartbeats/s); must be > 0.
        powers: Per-configuration power (W); must be > 0.
        idle_power: Power of the idle system, the rate-0 anchor.  Pass
            ``None`` to build a frontier without an idle point (then only
            rates between the slowest and fastest hull vertices are
            interpolable).
    """

    def __init__(self, rates: Sequence[float], powers: Sequence[float],
                 idle_power: Optional[float] = None) -> None:
        r = np.asarray(rates, dtype=float)
        p = np.asarray(powers, dtype=float)
        if r.shape != p.shape or r.ndim != 1 or r.size == 0:
            raise ValueError("rates and powers must be equal-length, non-empty")
        if np.any(~np.isfinite(r)) or np.any(~np.isfinite(p)):
            raise ValueError("rates and powers must be finite")
        if np.any(r <= 0):
            raise ValueError("all configuration rates must be positive")
        if np.any(p <= 0):
            raise ValueError("all configuration powers must be positive")
        if idle_power is not None:
            if not math.isfinite(idle_power):
                raise ValueError(f"idle_power must be finite, got {idle_power}")
            if idle_power < 0:
                raise ValueError(f"idle_power must be >= 0, got {idle_power}")
        self.idle_power = idle_power
        started = start_timer()
        if r.size <= _SMALL_CLOUD:
            points: List[Tuple[float, float, Optional[int]]] = [
                (float(r[i]), float(p[i]), i) for i in range(r.size)
            ]
            if idle_power is not None:
                points.append((0.0, float(idle_power), None))
        else:
            points = self._hull_candidates(r, p, idle_power)
        self._vertices = self._lower_hull(points)
        stop_timer("hull_build_seconds", started)
        get_metrics().set_gauge("hull_vertices", len(self._vertices))

    @staticmethod
    def _hull_candidates(r: np.ndarray, p: np.ndarray,
                         idle_power: Optional[float]
                         ) -> List[Tuple[float, float, Optional[int]]]:
        """The points that can be lower-hull vertices, sorted by rate.

        Sorts by (rate, power), keeps the first point of each rate, then
        keeps a point only if its power is a strict running minimum from
        the left or from the right: any other point has a point at least
        as cheap on each side and so lies on or above their chord.
        """
        n = r.size
        if idle_power is not None:
            r = np.append(r, 0.0)
            p = np.append(p, idle_power)
        order = np.lexsort((p, r))  # stable, as the chain's sort is
        rs = r[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = rs[1:] != rs[:-1]
        order = order[first]
        ps = p[order]
        keep = np.ones(order.size, dtype=bool)
        keep[1:] = ps[1:] < np.minimum.accumulate(ps[:-1])
        keep[:-1] |= ps[:-1] < np.minimum.accumulate(ps[:0:-1])[::-1]
        keep[-1] = True
        order = order[keep]
        return [(x, y, i if i < n else None) for x, y, i in
                zip(r[order].tolist(), p[order].tolist(), order.tolist())]

    @staticmethod
    def _lower_hull(points: List[Tuple[float, float, Optional[int]]]
                    ) -> List[HullPoint]:
        """Andrew's monotone chain, lower boundary only."""
        points = sorted(points, key=lambda q: (q[0], q[1]))
        # Deduplicate identical rates, keeping the cheapest.
        dedup: List[Tuple[float, float, Optional[int]]] = []
        for q in points:
            if dedup and dedup[-1][0] == q[0]:
                continue  # sorted by power within rate; first is cheapest
            dedup.append(q)
        hull: List[Tuple[float, float, Optional[int]]] = []
        for q in dedup:
            while len(hull) >= 2:
                (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
                cross = (x2 - x1) * (q[1] - y1) - (q[0] - x1) * (y2 - y1)
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(q)
        return [HullPoint(rate=x, power=y, config_index=i) for x, y, i in hull]

    @property
    def vertices(self) -> List[HullPoint]:
        """Hull vertices sorted by increasing rate."""
        return list(self._vertices)

    @property
    def max_rate(self) -> float:
        """Highest achievable rate (rightmost vertex)."""
        return self._vertices[-1].rate

    @property
    def min_rate(self) -> float:
        """Lowest rate on the hull (0 if an idle anchor exists)."""
        return self._vertices[0].rate

    def achievable(self, rate: float) -> bool:
        """Whether ``rate`` lies within the hull's rate span."""
        return self.min_rate <= rate <= self.max_rate

    def power_at(self, rate: float) -> float:
        """Minimum average power achieving ``rate``, by hull interpolation."""
        lo, hi, lam = self.bracket(rate)
        return (1.0 - lam) * lo.power + lam * hi.power

    def bracket(self, rate: float) -> Tuple[HullPoint, HullPoint, float]:
        """The hull segment covering ``rate`` and its mixing weight.

        Returns ``(low, high, lam)`` with
        ``rate == (1-lam)*low.rate + lam*high.rate``.  For a rate exactly
        on a vertex, ``low == high`` and ``lam == 0``.
        """
        if not np.isfinite(rate):
            raise ValueError(f"rate must be finite, got {rate}")
        if not self.achievable(rate):
            raise ValueError(
                f"rate {rate} outside achievable span "
                f"[{self.min_rate}, {self.max_rate}]"
            )
        verts = self._vertices
        for low, high in zip(verts, verts[1:]):
            if low.rate <= rate <= high.rate:
                span = high.rate - low.rate
                lam = 0.0 if span == 0 else (rate - low.rate) / span
                if lam == 0.0:
                    return low, low, 0.0
                if lam == 1.0:
                    return high, high, 0.0
                return low, high, lam
        # rate == max_rate with a single vertex, or exactly the last vertex.
        last = verts[-1]
        return last, last, 0.0

    def energy_per_work(self) -> HullPoint:
        """The vertex minimizing energy per unit work (power / rate).

        This is the most energy-efficient sustained operating point; the
        idle anchor (rate 0) is excluded.
        """
        best: Optional[HullPoint] = None
        for vertex in self._vertices:
            if vertex.rate <= 0:
                continue
            if best is None or vertex.power / vertex.rate < best.power / best.rate:
                best = vertex
        if best is None:
            raise RuntimeError("frontier has no positive-rate vertex")
        return best
