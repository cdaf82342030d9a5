"""Differential suite for the E-step's LAPACK helpers.

:func:`~repro.core.linalg.cholesky_factor` and
:func:`~repro.core.linalg.cholesky_solve` call ``dpotrf``/``dpotrs``
directly.  The oracle is scipy's own ``cho_factor``/``cho_solve``
(``lower=True, check_finite=False``), which run the same routines behind
their wrappers: every result must equal it bit for bit, on SPD matrices
of size 0 to 64 with 0 to 30 right-hand sides, in C and in Fortran
order.  On a matrix that is not positive definite both paths must raise
the same ``LinAlgError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from repro.core.linalg import cholesky_factor, cholesky_solve

sizes = st.integers(0, 64)
rhs_counts = st.integers(0, 30)
orders = st.sampled_from("CF")
seeds = st.integers(0, 2**32 - 1)


def _spd(rng, r, order):
    """A random SPD matrix, condition number up to about 1e6."""
    g = rng.standard_normal((r, r))
    a = g @ g.T + 10.0 ** rng.uniform(-6, 0) * r * np.eye(r)
    return np.asarray(a, order=order)


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


def _scipy_factor(a):
    return sla.cho_factor(a, lower=True, check_finite=False)[0]


def _scipy_solve(factor, b):
    return sla.cho_solve((factor, True), b, check_finite=False)


class TestMatchesScipy:
    @settings(deadline=None, max_examples=40)
    @given(sizes, rhs_counts, orders, orders, seeds)
    def test_factor_and_solve_are_bit_identical(self, r, k, a_order,
                                                b_order, seed):
        rng = np.random.default_rng(seed)
        a = _spd(rng, r, a_order)
        b = np.asarray(rng.standard_normal((r, k)), order=b_order)
        factor = cholesky_factor(a)
        assert _same_bits(factor, _scipy_factor(a))
        assert _same_bits(cholesky_solve(factor, b), _scipy_solve(factor, b))

    @settings(deadline=None, max_examples=20)
    @given(sizes, seeds)
    def test_vector_right_hand_side(self, r, seed):
        rng = np.random.default_rng(seed)
        factor = cholesky_factor(_spd(rng, r, "C"))
        b = rng.standard_normal(r)
        assert _same_bits(cholesky_solve(factor, b), _scipy_solve(factor, b))

    def test_empty_system_gives_empty_results(self):
        factor = cholesky_factor(np.zeros((0, 0)))
        assert factor.shape == (0, 0)
        assert cholesky_solve(factor, np.zeros((0, 5))).shape == (0, 5)
        assert cholesky_solve(cholesky_factor(np.eye(3)),
                              np.zeros((3, 0))).shape == (3, 0)


class TestNotPositiveDefinite:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 64), seeds,
           st.sampled_from(("negative pivot", "indefinite")))
    def test_same_linalg_error_as_scipy(self, r, seed, kind):
        rng = np.random.default_rng(seed)
        a = _spd(rng, r, "C")
        if kind == "negative pivot":
            j = int(rng.integers(r))
            a[j, j] = -1.0
        else:
            # v' a v < 0 for the unit vector v.
            v = rng.standard_normal(r)
            v /= np.linalg.norm(v)
            a -= 2.0 * float(v @ a @ v) * np.outer(v, v)
        with pytest.raises(np.linalg.LinAlgError) as want:
            _scipy_solve(_scipy_factor(a), np.ones((r, 2)))
        with pytest.raises(np.linalg.LinAlgError) as got:
            cholesky_solve(cholesky_factor(a), np.ones((r, 2)))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
