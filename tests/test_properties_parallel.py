"""Property tests for per-cell seeding and the batched E-step.

These lock down the two claims the experiment sweeps rest on:

* **Batching changes nothing** — the stacked mask-group E-step
  (`MaskedPosterior.means` / `logliks`, `EMEngine._dense_group_posterior`,
  the oracle's `PosteriorCache`) produces the same numbers as the
  one-application-at-a-time loops it replaced;
* **Cells are independent** — `cell_seed` derives each cell's seed
  stably from its payload, so a cell's result never depends on which
  cells ran before it or in which process.

Plus the optimizer invariants the golden fixtures rely on (hull vertices
are Pareto-optimal; the LP never loses to a single configuration) and
counter-based assertions that the batched E-step performs fewer
factorizations than one per application.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.em import EMConfig, EMEngine
from repro.core.linalg import MaskedPosterior, PosteriorCache, dense_posterior
from repro.core.observation import ObservationSet
from repro.obs import Observability, use
from repro.optimize.lp import EnergyMinimizer
from repro.optimize.pareto import TradeoffFrontier, pareto_optimal_mask
from repro.runtime.sampling import cell_seed

# ----------------------------------------------------------------------
# Shared generators
# ----------------------------------------------------------------------


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _random_obs_set(rng, m, n, num_masks):
    """Observations where groups of applications share random masks."""
    values = rng.standard_normal((m, n))
    mask = np.zeros((m, n), dtype=bool)
    masks = []
    for _ in range(num_masks):
        k = int(rng.integers(1, n + 1))
        masks.append(np.sort(rng.choice(n, size=k, replace=False)))
    for i in range(m):
        mask[i, masks[i % num_masks]] = True
    return ObservationSet(values=values, mask=mask)


# ----------------------------------------------------------------------
# Batched-vs-loop equality
# ----------------------------------------------------------------------


class TestBatchedEStepEqualsLoop:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 12), st.integers(2, 8), st.integers(0, 10_000))
    def test_means_match_per_row_mean(self, n, m, seed):
        """The stacked means() is the per-application mean(), row by row."""
        rng = np.random.default_rng(seed)
        sigma = _random_spd(rng, n)
        mu = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        obs_idx = np.sort(rng.choice(n, size=k, replace=False))
        y_rows = rng.standard_normal((m, k))

        post = MaskedPosterior(sigma, 0.3, obs_idx)
        stacked = post.means(mu, y_rows)
        for i in range(m):
            np.testing.assert_allclose(stacked[i], post.mean(mu, y_rows[i]),
                                       rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 12), st.integers(2, 8), st.integers(0, 10_000))
    def test_logliks_match_per_row_loglik(self, n, m, seed):
        rng = np.random.default_rng(seed)
        sigma = _random_spd(rng, n)
        mu = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        obs_idx = np.sort(rng.choice(n, size=k, replace=False))
        y_rows = rng.standard_normal((m, k))

        post = MaskedPosterior(sigma, 0.7, obs_idx)
        stacked = post.logliks(mu, y_rows)
        singles = [post.observed_loglik(mu, y_rows[i]) for i in range(m)]
        np.testing.assert_allclose(stacked, singles, rtol=1e-10, atol=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 10), st.integers(2, 8), st.integers(0, 10_000))
    def test_dense_group_posterior_matches_per_app(self, n, m, seed):
        """The stacked literal Eq. (3) equals dense_posterior per app."""
        rng = np.random.default_rng(seed)
        sigma = _random_spd(rng, n)
        mu = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        obs_idx = np.sort(rng.choice(n, size=k, replace=False))
        y_rows = rng.standard_normal((m, k))
        noise = 0.4

        sigma_inv = np.linalg.inv(sigma)
        cov, zhat_rows = EMEngine._dense_group_posterior(
            sigma_inv, noise, obs_idx, mu, y_rows, n)
        for i in range(m):
            z_i, cov_i = dense_posterior(sigma, noise, obs_idx, mu, y_rows[i])
            np.testing.assert_allclose(zhat_rows[i], z_i,
                                       rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(cov, cov_i, rtol=1e-8, atol=1e-10)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(3, 8), st.integers(4, 10), st.integers(1, 3),
           st.integers(0, 10_000))
    def test_woodbury_engine_matches_dense_engine(self, n, m, num_masks,
                                                  seed):
        """Both E-step formulations fit to the same posterior curves."""
        rng = np.random.default_rng(seed)
        obs = _random_obs_set(rng, m, n, num_masks)
        kwargs = dict(max_iterations=10, tol=1e-10)
        wood = EMEngine(config=EMConfig(use_woodbury=True, **kwargs)).fit(obs)
        dense = EMEngine(config=EMConfig(use_woodbury=False,
                                         **kwargs)).fit(obs)
        np.testing.assert_allclose(wood.zhat, dense.zhat,
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(wood.mu, dense.mu, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(wood.loglik_history, dense.loglik_history,
                                   rtol=1e-6)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(3, 8), st.integers(4, 10), st.integers(1, 2),
           st.integers(0, 10_000))
    def test_posterior_cache_is_bit_transparent(self, n, m, num_masks, seed):
        """The oracle's cache never changes a single bit of the fit.

        A second fit on the same engine is served from the cache; it
        must equal the first and a fresh engine's fit, which factorize
        everything themselves.
        """
        rng = np.random.default_rng(seed)
        obs = _random_obs_set(rng, m, n, num_masks)
        config = EMConfig(max_iterations=4, tol=1e-9, use_woodbury=False)
        engine = EMEngine(config=config)
        first = engine.fit(obs)
        ob = Observability.recording()
        with use(ob):
            cached = engine.fit(obs)
        plain = EMEngine(config=config).fit(obs)
        for result in (first, plain):
            assert np.array_equal(cached.zhat, result.zhat)
            assert np.array_equal(cached.zvar, result.zvar)
            assert np.array_equal(cached.sigma_mat, result.sigma_mat)
            assert cached.loglik_history == result.loglik_history
            assert cached.iterations == result.iterations
        counters = ob.metrics.snapshot()["counters"]
        assert counters["linalg_posterior_cache_hits_total"] == (
            cached.iterations * len(obs.mask_groups()))

    def test_cache_exact_hit_returns_same_object(self):
        rng = np.random.default_rng(3)
        sigma = _random_spd(rng, 6)
        obs_idx = np.array([0, 2, 5])
        cache = PosteriorCache(maxsize=4)
        first = cache.get(sigma, 0.5, obs_idx)
        second = cache.get(sigma.copy(), 0.5, obs_idx.copy())
        assert second is first  # content-addressed, not identity-addressed
        assert cache.hits == 1 and cache.misses == 1
        # Any parameter change is a miss.
        assert cache.get(sigma, 0.25, obs_idx) is not first
        assert cache.get(sigma + 1e-14, 0.5, obs_idx) is not first


# ----------------------------------------------------------------------
# Factorization counters: the batched path does strictly less work
# ----------------------------------------------------------------------


class TestFactorizationCounters:
    def _fit_counting(self, obs, config):
        ob = Observability.recording()
        with use(ob):
            result = EMEngine(config=config).fit(obs)
        counters = ob.metrics.snapshot()["counters"]
        return result, counters

    def test_one_factorization_per_group_per_iteration(self):
        rng = np.random.default_rng(11)
        obs = _random_obs_set(rng, m=12, n=8, num_masks=3)
        groups = obs.mask_groups()
        assert len(groups) == 3 and obs.num_applications == 12

        result, counters = self._fit_counting(
            obs, EMConfig(max_iterations=6, tol=1e-12))
        factorizations = counters["linalg_posterior_factorizations_total"]
        # One per (mask group, iteration) — NOT one per application.
        assert factorizations == result.iterations * len(groups)
        assert factorizations < result.iterations * obs.num_applications

    def test_dense_ablation_also_factorizes_per_group(self):
        rng = np.random.default_rng(12)
        obs = _random_obs_set(rng, m=10, n=6, num_masks=2)
        result, counters = self._fit_counting(
            obs, EMConfig(max_iterations=5, tol=1e-12, use_woodbury=False))
        factorizations = counters["linalg_posterior_factorizations_total"]
        assert factorizations == result.iterations * len(obs.mask_groups())

    def test_repeated_fit_hits_the_cache(self):
        """The oracle re-fitting identical data reuses every factorization."""
        rng = np.random.default_rng(13)
        obs = _random_obs_set(rng, m=8, n=6, num_masks=2)
        config = EMConfig(max_iterations=4, tol=1e-12, use_woodbury=False)
        engine = EMEngine(config=config)

        ob = Observability.recording()
        with use(ob):
            first = engine.fit(obs)
            before = ob.metrics.snapshot()["counters"]
            second = engine.fit(obs)
            after = ob.metrics.snapshot()["counters"]

        new_factorizations = (
            after["linalg_posterior_factorizations_total"]
            - before["linalg_posterior_factorizations_total"])
        assert new_factorizations == 0
        assert after["linalg_posterior_cache_hits_total"] >= (
            first.iterations * len(obs.mask_groups()))
        assert np.array_equal(first.zhat, second.zhat)


# ----------------------------------------------------------------------
# cell_seed: the per-cell seeding rule every sweep follows
# ----------------------------------------------------------------------


class TestCellSeed:
    def test_stable_and_distinct(self):
        a = cell_seed(0, "kmeans", "leo", 3)
        assert a == cell_seed(0, "kmeans", "leo", 3)  # deterministic
        others = {cell_seed(0, "kmeans", "leo", t) for t in range(50)}
        assert len(others) == 50  # no collisions across trials
        assert cell_seed(1, "kmeans", "leo", 3) != a  # base seed matters

    def test_fits_numpy_seed_range(self):
        for i in range(100):
            s = cell_seed(i, "x")
            assert 0 <= s < 2 ** 63
            np.random.default_rng(s)  # must be accepted


# ----------------------------------------------------------------------
# Optimizer invariants the golden fixtures rely on
# ----------------------------------------------------------------------


class TestHullAndLPInvariants:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 40), st.integers(0, 10_000))
    def test_hull_vertices_are_pareto_optimal(self, n, seed):
        """Every hull vertex tied to a config is on the Pareto frontier."""
        rng = np.random.default_rng(seed)
        rates = rng.uniform(1.0, 100.0, n)
        powers = rng.uniform(50.0, 400.0, n)
        frontier = TradeoffFrontier(rates, powers, idle_power=25.0)
        mask = pareto_optimal_mask(rates, powers)
        for vertex in frontier.vertices:
            if vertex.config_index is not None:
                assert mask[vertex.config_index]

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 30), st.integers(0, 10_000),
           st.floats(min_value=0.05, max_value=1.0))
    def test_lp_beats_every_single_config(self, n, seed, utilization):
        """The LP schedule never costs more than any one feasible config."""
        rng = np.random.default_rng(seed)
        rates = rng.uniform(1.0, 100.0, n)
        powers = rng.uniform(60.0, 400.0, n)
        idle = 40.0
        minimizer = EnergyMinimizer(rates, powers, idle)
        deadline = 10.0
        work = utilization * minimizer.max_rate * deadline
        best = minimizer.min_energy(work, deadline)
        for rate, power in zip(rates, powers):
            time_needed = work / rate
            if time_needed > deadline:
                continue  # this config alone cannot meet the deadline
            single = power * time_needed + idle * (deadline - time_needed)
            assert best <= single * (1 + 1e-9) + 1e-9
