"""The exact subspace EM engine against the literal Eq. (3) oracle.

The default engine fits in the subspace S spanned by the fully observed
rows, the unit vectors of every partially observed configuration, the
initial mean, mu_0 and Psi's low-rank factor, holding
``Sigma = Q B Q' + c (I - Q Q')`` (docs/MATH.md, "Exact subspace
E-step").  ``EMConfig(use_woodbury=False)`` runs literal Eq. (3) with
dense n x n inverses on all of R^n.  The two compute the same fit, so
every output must agree to rtol 1e-8 over random sizes, mask layouts,
noise levels, priors and initial means.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.em import EMConfig, EMEngine
from repro.core.linalg import SubspaceBasis
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior

RTOL = 1e-8

PRIORS = ("ml", "paper", "factored")


def _layout(rng, m, n, num_masks, partial_priors):
    """Fully observed priors plus up to ``num_masks`` partial masks.

    The target (last row) takes the first partial mask; with
    ``partial_priors`` some prior rows take the others.
    """
    mask = np.ones((m, n), dtype=bool)
    patterns = []
    for _ in range(num_masks):
        k = int(rng.integers(1, n + 1))
        pattern = np.zeros(n, dtype=bool)
        pattern[rng.choice(n, size=k, replace=False)] = True
        patterns.append(pattern)
    if patterns:
        mask[-1] = patterns[0]
    if partial_priors and len(patterns) > 1:
        for row in range(m - 1):
            if rng.random() < 0.5:
                mask[row] = patterns[1 + row % (len(patterns) - 1)]
    return mask


def _observations(rng, m, n, num_masks, partial_priors, noise):
    """Curves from a low-rank-plus-ridge model, observed with noise."""
    rank = min(n, 4)
    mu = rng.normal(scale=2.0, size=n)
    loadings = rng.standard_normal((n, rank))
    curves = (mu + rng.standard_normal((m, rank)) @ loadings.T
              + 0.3 * rng.standard_normal((m, n)))
    values = curves + noise * rng.standard_normal((m, n))
    mask = _layout(rng, m, n, num_masks, partial_priors)
    return ObservationSet(np.where(mask, values, 0.0), mask)


def _prior(rng, kind, n):
    if kind == "ml":
        return None
    if kind == "paper":
        return NIWPrior.paper_default()
    factor = 0.5 * rng.standard_normal((n, int(rng.integers(1, 4))))
    return NIWPrior(mu0=rng.standard_normal(n), pi=1.0,
                    psi=(float(rng.uniform(0.1, 1.0)), factor), nu=1.0)


def _assert_close(actual, desired):
    desired = np.asarray(desired, dtype=float)
    scale = max(1.0, float(np.max(np.abs(desired), initial=0.0)))
    np.testing.assert_allclose(actual, desired, rtol=RTOL,
                               atol=RTOL * scale)


class TestSubspaceMatchesOracle:
    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 300), m=st.integers(1, 10),
           num_masks=st.integers(0, 3), partial_priors=st.booleans(),
           noise=st.floats(0.01, 1.0), prior_kind=st.sampled_from(PRIORS),
           random_init=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_output_matches(self, n, m, num_masks, partial_priors,
                                  noise, prior_kind, random_init, seed):
        rng = np.random.default_rng(seed)
        obs = _observations(rng, m, n, num_masks, partial_priors, noise)
        prior = _prior(rng, prior_kind, n)
        init_mu = rng.standard_normal(n) if random_init else None
        kwargs = dict(max_iterations=6, tol=1e-10)
        fast = EMEngine(prior=prior, config=EMConfig(**kwargs)).fit(
            obs, init_mu=init_mu)
        oracle = EMEngine(prior=prior, config=EMConfig(
            use_woodbury=False, **kwargs)).fit(obs, init_mu=init_mu)

        assert fast.sigma_basis.dim <= n
        assert fast.iterations == oracle.iterations
        assert fast.converged == oracle.converged
        _assert_close(fast.mu, oracle.mu)
        _assert_close(fast.sigma_mat, oracle.sigma_mat)
        _assert_close(fast.noise_var, oracle.noise_var)
        _assert_close(fast.zhat, oracle.zhat)
        _assert_close(fast.zvar, oracle.zvar)
        np.testing.assert_allclose(fast.loglik_history,
                                   oracle.loglik_history, rtol=RTOL)
        if prior is None:
            history = fast.loglik_history
            for before, after in zip(history, history[1:]):
                assert after >= before - 1e-9 * (abs(before) + 1.0)


class TestSubspaceDimension:
    def test_paper_layout_fits_in_priors_plus_samples(self):
        """Centered priors plus |Omega| unit vectors: r = (M-2) + |Omega|.

        LEO's layout: M-1 prior rows centered per configuration (so they
        span M-2 directions), a zero initial mean, mu_0 = 0 and Psi = I.
        """
        rng = np.random.default_rng(5)
        n, priors, samples = 400, 12, 15
        table = rng.standard_normal((priors, n))
        idx = np.sort(rng.choice(n, size=samples, replace=False))
        obs = ObservationSet.from_prior_and_target(
            table - table.mean(axis=0), idx, rng.standard_normal(samples))
        result = EMEngine(prior=NIWPrior.paper_default()).fit(
            obs, init_mu=np.zeros(n))
        assert result.sigma_basis.dim == (priors - 1) + samples

    def test_dense_inputs_span_everything(self):
        rng = np.random.default_rng(6)
        obs = _observations(rng, 6, 20, 1, False, 0.1)
        dense_psi = NIWPrior(psi=np.eye(20) * 0.5)
        assert EMEngine(prior=dense_psi).fit(obs).sigma_basis.dim == 20
        assert EMEngine().fit(
            obs, init_sigma=np.eye(20)).sigma_basis.dim == 20

    def test_basis_is_orthonormal_and_keeps_unit_vectors(self):
        rng = np.random.default_rng(7)
        generators = rng.standard_normal((5, 30))
        generators[3] = generators[0] + 2.0 * generators[1]  # dependent
        basis = SubspaceBasis.spanning(30, np.array([4, 1, 9, 4]),
                                       generators)
        q = basis.lift(np.eye(basis.dim))  # rows are the columns of Q
        assert basis.dim == 3 + 4
        np.testing.assert_allclose(q @ q.T, np.eye(basis.dim), atol=1e-12)
        np.testing.assert_array_equal(q[:3], np.eye(30)[[1, 4, 9]])
        projected = basis.lift(basis.project(generators))
        np.testing.assert_allclose(projected, generators, atol=1e-12)

    def test_basis_rejects_coordinates_outside_the_space(self):
        with pytest.raises(ValueError, match="lie in"):
            SubspaceBasis(4, [5], np.zeros((4, 0)))
        with pytest.raises(ValueError, match="lie in"):
            SubspaceBasis.spanning(4, [-1], np.ones((1, 4)))
        basis = SubspaceBasis(6, [5, 0, 5], np.zeros((4, 0)))
        np.testing.assert_array_equal(basis.unit, [0, 5])
        np.testing.assert_array_equal(basis.rest, [1, 2, 3, 4])


class TestNoDenseArrayOnTheFitPath:
    def test_sigma_is_materialized_only_when_read(self):
        rng = np.random.default_rng(8)
        obs = _observations(rng, 6, 40, 1, False, 0.1)
        result = EMEngine(prior=NIWPrior.paper_default()).fit(obs)
        assert "sigma_mat" not in vars(result)
        sigma = result.sigma_mat
        assert sigma.shape == (40, 40)
        assert vars(result)["sigma_mat"] is sigma

    def test_65536_configurations_fit_in_bounded_memory(self):
        """One n x n float64 at this size would be 32 GiB."""
        n, priors, samples = 65_536, 24, 20
        rng = np.random.default_rng(9)
        tracemalloc.start()
        try:
            base = np.cumsum(rng.standard_normal(n))
            table = base + rng.standard_normal((priors, 1))
            table += 0.1 * rng.standard_normal((priors, n))
            idx = np.sort(rng.choice(n, size=samples, replace=False))
            obs = ObservationSet.from_prior_and_target(
                table, idx, 1.1 * base[idx])
            result = EMEngine(prior=NIWPrior.paper_default(),
                              config=EMConfig(max_iterations=5)).fit(obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.zhat.shape == (priors + 1, n)
        assert np.all(np.isfinite(result.zhat))
        assert np.all(result.zvar >= -1e-9)
        assert result.sigma_basis.dim <= priors + 1 + samples
        assert peak < 1 << 30
