"""Differential suite for the Pareto hull's numpy candidate prefilter.

Above ``_SMALL_CLOUD`` configurations, :class:`TradeoffFrontier` hands
the monotone chain only the points whose power is a strict running
minimum from the left or from the right.  The oracle is the chain itself,
``TradeoffFrontier._lower_hull``, run over every point with no prefilter:
the frontier must return exactly the same ``(rate, power, config_index)``
vertices.  The clouds cover both sides of the cutoff, ties in rate, in
power and in both, exactly collinear and near-collinear points, points
on a parabola, and every placement of the idle anchor.

One regime is pinned by example instead: points a few ulps apart, where
the chain's floating-point orientation test rounds a strictly convex
turn to zero.  There the chain over all points can keep a dominated
point that the prefilter never hands it, and the frontier's answer is
the exact hull (``test_ulp_close_points_get_the_exact_hull``).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize import pareto
from repro.optimize.pareto import TradeoffFrontier

_IDLE_PLACEMENTS = ("none", "zero", "below", "at-min", "above")

sizes = st.integers(1, 1100)
seeds = st.integers(0, 2**32 - 1)
idle_placements = st.sampled_from(_IDLE_PLACEMENTS)


def _idle_power(placement, powers, rng):
    if placement == "none":
        return None
    if placement == "zero":
        return 0.0
    if placement == "below":
        return float(powers.min()) * rng.uniform(0.0, 1.0)
    if placement == "at-min":
        return float(powers.min())
    return float(powers.max()) + rng.uniform(0.0, 10.0)


def _oracle(rates, powers, idle_power):
    """The chain over every point, as the frontier built it before."""
    points = [(float(rates[i]), float(powers[i]), i)
              for i in range(rates.size)]
    if idle_power is not None:
        points.append((0.0, float(idle_power), None))
    return [(v.rate, v.power, v.config_index)
            for v in TradeoffFrontier._lower_hull(points)]


def _vertices(rates, powers, idle_power):
    frontier = TradeoffFrontier(rates, powers, idle_power=idle_power)
    return [(v.rate, v.power, v.config_index) for v in frontier.vertices]


def _assert_matches_oracle(rates, powers, placement, rng):
    idle_power = _idle_power(placement, powers, rng)
    assert _vertices(rates, powers, idle_power) == \
        _oracle(rates, powers, idle_power)


def _line(rng, n):
    """Integer rates and powers on one line; its slope may be any sign."""
    rates = rng.integers(1, 2 * n + 2, n).astype(float)
    slope = int(rng.integers(-5, 6))
    intercept = 1 + max(0, -slope) * (2 * n + 2) + int(rng.integers(0, 50))
    return rates, intercept + slope * rates


class TestPrefilterMatchesChain:
    @settings(deadline=None, max_examples=40)
    @given(sizes, seeds, st.integers(1, 60), st.integers(1, 60),
           idle_placements)
    def test_integer_clouds_with_ties(self, n, seed, rate_levels,
                                      power_levels, placement):
        # Few distinct levels force ties in rate, in power and in both.
        rng = np.random.default_rng(seed)
        rates = rng.integers(1, rate_levels + 1, n).astype(float)
        powers = rng.integers(1, power_levels + 1, n).astype(float)
        _assert_matches_oracle(rates, powers, placement, rng)

    @settings(deadline=None, max_examples=30)
    @given(sizes, seeds, idle_placements)
    def test_real_valued_clouds(self, n, seed, placement):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.5, 200.0, n)
        powers = rng.uniform(20.0, 400.0, n)
        # Copy some points' rates and powers onto others: exact ties.
        ties = n // 4
        rates[rng.integers(0, n, ties)] = rates[rng.integers(0, n, ties)]
        powers[rng.integers(0, n, ties)] = powers[rng.integers(0, n, ties)]
        _assert_matches_oracle(rates, powers, placement, rng)

    @settings(deadline=None, max_examples=30)
    @given(sizes, seeds, idle_placements)
    def test_exactly_collinear(self, n, seed, placement):
        rng = np.random.default_rng(seed)
        rates, powers = _line(rng, n)
        _assert_matches_oracle(rates, powers, placement, rng)

    @settings(deadline=None, max_examples=30)
    @given(sizes, seeds, idle_placements)
    def test_near_collinear(self, n, seed, placement):
        rng = np.random.default_rng(seed)
        rates, powers = _line(rng, n)
        powers = powers + rng.uniform(-1e-13, 1e-13, n)
        _assert_matches_oracle(rates, powers, placement, rng)

    @settings(deadline=None, max_examples=30)
    @given(sizes, seeds, idle_placements)
    def test_parabola(self, n, seed, placement):
        # A convex cloud: every distinct rate's cheapest point is a vertex.
        rng = np.random.default_rng(seed)
        rates = rng.integers(1, 2 * n + 2, n).astype(float)
        bottom = int(rng.integers(1, 2 * n + 2))
        powers = (rates - bottom) ** 2 + int(rng.integers(1, 50))
        _assert_matches_oracle(rates, powers, placement, rng)

    @pytest.mark.parametrize("n", [1, 2, pareto._SMALL_CLOUD,
                                   pareto._SMALL_CLOUD + 1, 1024, 1100])
    @pytest.mark.parametrize("placement", _IDLE_PLACEMENTS)
    def test_both_sides_of_the_cutoff(self, n, placement):
        rng = np.random.default_rng(n)
        rates = rng.integers(1, 40, n).astype(float)
        powers = rng.integers(1, 40, n).astype(float)
        _assert_matches_oracle(rates, powers, placement, rng)


def _exact_chain(points):
    """The monotone chain with every orientation test in exact rationals."""
    hull = []
    for q in sorted(points, key=lambda q: (q[0], q[1])):
        if hull and hull[-1][0] == q[0]:
            continue  # sorted by power within rate; first is cheapest
        while len(hull) >= 2:
            (x1, y1), (x2, y2), (qx, qy) = (
                map(Fraction, pt[:2]) for pt in (hull[-2], hull[-1], q))
            if (x2 - x1) * (qy - y1) - (qx - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


def test_ulp_close_points_get_the_exact_hull():
    # Configs 0, 4 and 1 lie within a few ulps of one another, and 1 is
    # both faster and cheaper than 4.  Adding 4 after 0, the chain's
    # floating-point orientation test rounds a strictly convex turn to
    # zero, pops 0 and keeps the dominated 4.  The prefilter drops 4
    # (0 and 1 are as cheap on either side), so the frontier returns the
    # hull that exact arithmetic gives.  Thirty expensive points lift the
    # cloud past the small-cloud cutoff.
    rates = np.array([2.604983922759913, 2.604983922759914,
                      0.5588946844167768, 1.1242306569151643,
                      2.6049839227599136] + list(np.linspace(0.6, 2.5, 30)))
    powers = np.array([1.8577563992019515, 1.8577563992019512,
                       5.819630988046337, 7.506542892562786,
                       1.8577563992019517] + [9.0] * 30)
    assert rates.size > pareto._SMALL_CLOUD
    points = [(float(rates[i]), float(powers[i]), i)
              for i in range(rates.size)]
    assert _vertices(rates, powers, None) == _exact_chain(points)
    assert [v[2] for v in _exact_chain(points)] == [2, 0, 1]
    assert [v[2] for v in _oracle(rates, powers, None)] == [2, 4, 1]
