"""Property tests for histogram percentiles.

The nearest-rank method has a one-line implementation and a history of
off-by-one bugs at its edges (q=0, n=1, duplicated values, and ranks
where ``q/100*n`` is inexact in binary).  Hypothesis drives the edges;
numpy is the oracle for the linear-interpolation mode.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Histogram

_values = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60)

_q = st.floats(min_value=0.0, max_value=100.0,
               allow_nan=False, allow_infinity=False)


def _hist(values):
    hist = Histogram("h")
    hist.extend(values)
    return hist


class TestNearestRank:
    @settings(deadline=None, max_examples=100)
    @given(_values, _q)
    def test_returns_an_observed_value(self, values, q):
        assert _hist(values).percentile(q) in values

    @settings(deadline=None, max_examples=50)
    @given(st.floats(min_value=-1e9, max_value=1e9,
                     allow_nan=False, allow_infinity=False), _q)
    def test_single_observation_is_every_percentile(self, value, q):
        assert _hist([value]).percentile(q) == value

    @settings(deadline=None, max_examples=50)
    @given(_values)
    def test_extremes_are_min_and_max(self, values):
        hist = _hist(values)
        assert hist.percentile(0) == min(values)
        assert hist.percentile(100) == max(values)

    @settings(deadline=None, max_examples=50)
    @given(st.floats(min_value=-1e9, max_value=1e9,
                     allow_nan=False, allow_infinity=False),
           st.integers(min_value=1, max_value=40), _q)
    def test_duplicates_collapse_to_the_value(self, value, n, q):
        assert _hist([value] * n).percentile(q) == value

    @settings(deadline=None, max_examples=100)
    @given(_values, _q)
    def test_rank_is_exact_multiply_first(self, values, q):
        # The regression this guards: q=28, n=25 — q/100*n computes to
        # 7.000000000000001, whose ceiling lands one rank too high.
        ordered = sorted(values)
        n = len(ordered)
        rank = max(1, min(math.ceil(q * n / 100.0), n))
        assert _hist(values).percentile(q) == ordered[rank - 1]

    def test_q28_n25_regression(self):
        # ceil(28/100*25) = ceil(7.000000000000001) = 8, one rank too
        # high; multiply-first computes the exact 7.0.
        hist = _hist(range(1, 26))
        assert hist.percentile(28) == 7
        assert math.ceil(28 / 100.0 * 25) == 8, \
            "divide-first is inexact here; if this stops holding the " \
            "regression case needs a new witness"

    def test_monotone_in_q(self):
        hist = _hist([5.0, 1.0, 3.0, 2.0, 4.0])
        results = [hist.percentile(q) for q in range(0, 101, 5)]
        assert results == sorted(results)


class TestLinearInterpolation:
    @settings(deadline=None, max_examples=100)
    @given(_values, _q)
    # A weight just under 1 across a wide span: a one-sided lerp
    # a + (b - a) * t cancels to -3.73e-9 here, numpy gives -1.86e-9.
    @example(values=[0.0, -16777217.0], q=99.99999999999999)
    def test_matches_numpy(self, values, q):
        ours = _hist(values).percentile(q, mode="linear")
        theirs = float(np.percentile(values, q))
        assert ours == theirs or abs(ours - theirs) <= 1e-9 * max(
            1.0, abs(theirs))

    @settings(deadline=None, max_examples=50)
    @given(_values, _q)
    def test_bounded_by_observed_range(self, values, q):
        result = _hist(values).percentile(q, mode="linear")
        assert min(values) <= result <= max(values)

    def test_interpolates_between_order_statistics(self):
        assert _hist([0.0, 10.0]).percentile(50, mode="linear") == 5.0


class TestValidation:
    def test_out_of_range_q_rejected(self):
        hist = _hist([1.0])
        for q in (-0.1, 100.1):
            try:
                hist.percentile(q)
            except ValueError:
                continue
            raise AssertionError(f"q={q} accepted")

    def test_unknown_mode_rejected(self):
        try:
            _hist([1.0]).percentile(50, mode="cubic")
        except ValueError:
            return
        raise AssertionError("mode='cubic' accepted")

    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram("h").percentile(50))
        assert math.isnan(Histogram("h").percentile(50, mode="linear"))
