"""The expectation-maximization engine (paper Section 5.3).

Alternates the E-step (Eq. 3: posterior moments of each application's
latent curve z_i given the current parameters) with the M-step (Eq. 4:
re-estimating theta = {mu, Sigma, sigma}) until the observed-data
log-likelihood stabilizes.  The paper reports convergence in 3-4
iterations on its benchmark set; the engine caps iterations and reports
whether the tolerance was reached.

The M-step follows Eq. (4) with the normal-inverse-Wishart terms placed
inside the normalizer (see DESIGN.md section 2 for why the printed
formula's placement cannot be literal).  Passing ``prior=None`` removes
the NIW terms entirely, giving the exact maximum-likelihood M-step, under
which EM's classic monotonicity guarantee holds and is property-tested.

The fit runs in a subspace.  Every quantity of Eqs. (3)-(4) stays in one
fixed subspace S of R^n, spanned by the fully observed rows, the unit
vectors of every partially observed configuration, the initial mean,
mu_0 and Psi's low-rank factor (docs/MATH.md, "Exact subspace E-step").
With an orthonormal basis Q (n x r) of S the engine holds

    Sigma = Q B Q' + c (I - Q Q')

and updates only the r x r matrix B and the scalar c; means live in
S-coordinates and are lifted back to n dimensions once, at the end.  A
dense ``init_sigma`` or dense-matrix Psi makes S all of R^n (Q = I).
The literal Eq. (3) path (``use_woodbury=False``) runs the same loop
with Q = I and dense n x n inverses: it is the oracle the subspace
engine is tested against and the paper's Woodbury ablation.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from typing import List, Optional, Tuple

import numpy as np

from repro.core.linalg import (
    PosteriorCache,
    SubspaceBasis,
    cholesky_factor,
    cholesky_logdet,
    cholesky_solve,
    nearest_psd_jitter,
    psd_core_jitter,
    symmetrize,
)
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.errors import ConvergenceError
from repro.faults.context import get_injector
from repro.obs import get_observability

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM engine.

    Attributes:
        max_iterations: Hard cap on EM iterations.
        tol: Relative log-likelihood change below which EM stops.
        min_noise_var: Floor on sigma^2 to keep posteriors well-posed.
        use_woodbury: Run the exact subspace E-step (True) or the
            literal dense Eq. (3) inverses on all of R^n (False; the
            oracle and the paper's Woodbury ablation).
        raise_on_nonconvergence: Raise :class:`~repro.errors.
            ConvergenceError` when the iteration cap is hit without
            meeting the tolerance, instead of returning
            ``converged=False``.  Off by default: the paper's runtime
            deliberately runs few iterations and accepts the partial
            fit.  A non-finite log-likelihood *always* raises — a
            NaN-poisoned fit is never returned.
    """

    max_iterations: int = 50
    tol: float = 1e-6
    min_noise_var: float = 1e-10
    use_woodbury: bool = True
    raise_on_nonconvergence: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.min_noise_var <= 0:
            raise ValueError(
                f"min_noise_var must be positive, got {self.min_noise_var}"
            )


@dataclasses.dataclass
class EMResult:
    """Fitted parameters and posterior summaries.

    Attributes:
        mu: Estimated shared mean, shape ``(n,)``.
        noise_var: Estimated measurement noise sigma^2.
        zhat: Posterior means E(z_i), shape ``(M, n)`` — row M-1 is the
            target application's estimate (paper Section 5.4).
        zvar: Posterior variances diag(Cov(z_i)), shape ``(M, n)``,
            quantifying per-configuration estimation uncertainty.
        loglik_history: Observed-data log-likelihood before each E-step.
        iterations: EM iterations executed.
        converged: Whether the tolerance was met before the cap.
        sigma_basis: Orthonormal basis Q (n x r) of the fit's subspace.
        sigma_core: Sigma restricted to the subspace, ``Q' Sigma Q``.
        sigma_scale: Sigma's value c on the subspace's complement, so
            ``Sigma = c I + Q (sigma_core - c I) Q'``.
    """

    mu: np.ndarray
    noise_var: float
    zhat: np.ndarray
    zvar: np.ndarray
    loglik_history: List[float]
    iterations: int
    converged: bool
    sigma_basis: SubspaceBasis
    sigma_core: np.ndarray
    sigma_scale: float

    @functools.cached_property
    def sigma_mat(self) -> np.ndarray:
        """Estimated shared covariance Sigma, ``(n, n)``, built when read."""
        return self.sigma_basis.matrix(self.sigma_core, self.sigma_scale)


@dataclasses.dataclass(frozen=True)
class _Group:
    """Applications sharing one observation mask, in S-coordinates.

    ``pos`` are the S-coordinates the mask pins down and ``y`` the
    applications' observations there.  A fully observed mask also
    observes the whole complement of S, where its data is zero.
    """

    apps: np.ndarray
    num_observed: int
    pos: np.ndarray
    y: np.ndarray
    full: bool


def _default_mean(obs: ObservationSet) -> np.ndarray:
    """The per-configuration mean of whatever was observed (Section 5.5).

    Configurations nobody observed start at the global mean.
    """
    values, mask = obs.values, obs.mask
    counts = mask.sum(axis=0)
    global_mean = values[mask].mean()
    return np.where(counts > 0, values.sum(axis=0) / np.maximum(counts, 1),
                    global_mean)


def _data_variance(obs: ObservationSet) -> float:
    data_var = float(obs.values[obs.mask].var())
    return data_var if data_var > 0 else 1.0


def _default_covariance(rows: np.ndarray, basis: SubspaceBasis,
                        data_var: float) -> Tuple[np.ndarray, float]:
    """Sigma's starting point, restricted to S: ``(core, c)``.

    The sample covariance of the fully observed rows (``rows``, in
    S-coordinates) plus a small ridge, falling back to a scaled identity
    below two rows.  The rows lie in S, so on S's complement only the
    ridge remains.
    """
    r = basis.dim
    if rows.shape[0] >= 2:
        centered = rows - rows.mean(axis=0)
        ridge = 0.05 * data_var
        core = (centered.T @ centered / (rows.shape[0] - 1)
                + ridge * np.eye(r))
        return psd_core_jitter(core, ridge, basis.perp_dims)
    return data_var * np.eye(r), data_var


class EMEngine:
    """Runs EM for the hierarchical model on an observation set.

    The literal Eq. (3) oracle (``use_woodbury=False``) memoizes its
    log-likelihood factorizations in a :class:`~repro.core.linalg.
    PosteriorCache` shared by every :meth:`fit` the engine performs.
    """

    def __init__(self, prior: Optional[NIWPrior] = None,
                 config: EMConfig = EMConfig()) -> None:
        self.prior = prior
        self.config = config
        self._posteriors = PosteriorCache()

    # ------------------------------------------------------------------
    def fit(self, obs: ObservationSet,
            init_mu: Optional[np.ndarray] = None,
            init_sigma: Optional[np.ndarray] = None,
            init_noise_var: Optional[float] = None) -> EMResult:
        """Fit theta = {mu, Sigma, sigma^2} and the posterior curves."""
        n = obs.num_configs
        m = obs.num_applications
        mu = (np.asarray(init_mu, dtype=float) if init_mu is not None
              else _default_mean(obs))
        if mu.shape != (n,):
            raise ValueError(f"init_mu shape {mu.shape} != ({n},)")
        if init_sigma is not None:
            init_sigma = np.asarray(init_sigma, dtype=float)
            if init_sigma.shape != (n, n):
                raise ValueError(
                    f"init_sigma shape {init_sigma.shape} != ({n}, {n})")
        data_var = _data_variance(obs)
        noise_var = (float(init_noise_var) if init_noise_var is not None
                     else max(0.01 * data_var, 1e-8))
        if noise_var <= 0:
            raise ValueError(f"init_noise_var must be positive, got {noise_var}")

        dense = not self.config.use_woodbury
        mask_groups = obs.mask_groups()
        full_rows = obs.values[obs.mask.all(axis=1)]
        if (dense or init_sigma is not None
                or (self.prior is not None and self.prior.psi_is_dense)):
            basis = SubspaceBasis.identity(n)
        else:
            basis = self._basis(obs, mask_groups, full_rows, mu)
        r, perp_dims = basis.dim, basis.perp_dims
        # The fully observed rows in S-coordinates: the starting Sigma's
        # sample and the full mask group's data.
        full_y = basis.project(full_rows)
        groups = [self._group(obs, basis, obs_idx, apps, full_y)
                  for obs_idx, apps in mask_groups]
        prior_terms = self._prior_terms(basis)
        mu_s = basis.project(mu)
        if init_sigma is not None:
            core, scale = psd_core_jitter(init_sigma, 0.0, perp_dims)
        else:
            core, scale = _default_covariance(full_y, basis, data_var)
        total_observations = obs.total_observations

        # Fault-injection hook: force the failure modes the numerical
        # guards below exist for.
        for spec in get_injector().fire("em.fit"):
            if spec.kind == "em-nonconvergence":
                raise ConvergenceError(
                    "injected EM non-convergence",
                    iterations=self.config.max_iterations)
            if spec.kind == "singular-covariance":
                if spec.magnitude < 0:
                    core = np.full_like(core, np.nan)
                    scale = float("nan")
                else:
                    # A singular starting Sigma: repairable, so this
                    # exercises the jitter-escalation guard; a negative
                    # magnitude poisons it outright, so the guard raises
                    # CovarianceError.
                    core = core * spec.magnitude
                    scale = scale * spec.magnitude
                core, scale = psd_core_jitter(core, scale, perp_dims)

        loglik_history: List[float] = []
        converged = False
        iterations = 0

        ob = get_observability()
        with ob.tracer.span("em.fit", num_applications=m, num_configs=n,
                            use_woodbury=self.config.use_woodbury,
                            subspace_dim=r) as fit_span:
            for iterations in range(1, self.config.max_iterations + 1):
                with ob.tracer.span("em.iteration",
                                    iteration=iterations) as it_span:
                    # ---------------- E-step (Eq. 3) ----------------
                    # One factorization per mask group, applied to all
                    # of the group's applications at once.
                    loglik = 0.0
                    zs = np.empty((m, r))
                    cov_sum = np.zeros((r, r))
                    perp_sum = 0.0  # sum over apps of Cov(z_i) on S-perp
                    sse_obs = 0.0  # sum over observed entries of (zhat - y)^2
                    trace_obs = 0.0  # sum over observed entries of diag(C)
                    posteriors = []
                    if dense:
                        # The literal Eq. (3) needs Sigma^{-1}; it depends
                        # only on the iteration's parameters, not the mask.
                        sigma_inv = np.linalg.inv(nearest_psd_jitter(core))
                    for group in groups:
                        if dense:
                            cov, rows = self._dense_group_posterior(
                                sigma_inv, noise_var, group.pos, mu_s,
                                group.y, n)
                            check = self._posteriors.get(core, noise_var,
                                                         group.pos)
                            logliks = check.logliks(mu_s, group.y)
                            perp_var = 0.0
                        else:
                            cov, rows, logliks, perp_var = (
                                _subspace_posterior(core, scale, noise_var,
                                                    group, mu_s, perp_dims))
                            ob.metrics.inc(
                                "linalg_posterior_factorizations_total")
                        count = group.apps.size
                        zs[group.apps] = rows
                        loglik += float(logliks.sum())
                        cov_sum += count * cov
                        perp_sum += count * perp_var
                        observed_perp = perp_dims if group.full else 0
                        trace_obs += count * (
                            float(np.diag(cov)[group.pos].sum())
                            + observed_perp * perp_var)
                        diffs = rows[:, group.pos] - group.y
                        sse_obs += float(np.einsum("ij,ij->", diffs, diffs))
                        posteriors.append((group.apps, cov, perp_var))

                    if not np.isfinite(loglik):
                        raise ConvergenceError(
                            f"EM log-likelihood became non-finite "
                            f"({loglik!r}) at iteration {iterations}",
                            iterations=iterations, loglik=loglik)
                    loglik_history.append(loglik)
                    it_span.set_attribute("loglik", loglik)
                    ob.metrics.inc("em_iterations_total")
                    if len(loglik_history) >= 2:
                        prev = loglik_history[-2]
                        it_span.set_attribute("loglik_delta", loglik - prev)
                        if (abs(loglik - prev)
                                <= self.config.tol * (abs(prev) + 1.0)):
                            converged = True

                    if not converged:
                        # ---------------- M-step (Eq. 4) ----------------
                        mu_s, core, scale = self._m_step(
                            zs, cov_sum, perp_sum, prior_terms, perp_dims)
                        noise_var = max(
                            (trace_obs + sse_obs) / total_observations,
                            self.config.min_noise_var)
                if converged:
                    break
            fit_span.set_attribute("iterations", iterations)
            fit_span.set_attribute("converged", converged)

        if not converged:
            if self.config.raise_on_nonconvergence:
                raise ConvergenceError(
                    f"EM hit the iteration cap ({iterations}) without "
                    f"reaching tol={self.config.tol}",
                    iterations=iterations,
                    loglik=loglik_history[-1] if loglik_history
                    else float("nan"))
            logger.debug(
                "EM stopped at the iteration cap without converging",
                extra={"fields": {"iterations": iterations,
                                  "tol": self.config.tol}})
        zvar = np.empty((m, n))
        for apps, cov, perp_var in posteriors:
            zvar[apps] = basis.diagonal(cov, perp_var)
        return EMResult(mu=basis.lift(mu_s), noise_var=noise_var,
                        zhat=basis.lift(zs), zvar=zvar,
                        loglik_history=loglik_history,
                        iterations=iterations, converged=converged,
                        sigma_basis=basis, sigma_core=core,
                        sigma_scale=scale)

    # ------------------------------------------------------------------
    def _basis(self, obs: ObservationSet, mask_groups, full_rows: np.ndarray,
               mu: np.ndarray) -> SubspaceBasis:
        """The basis of S for this fit.

        Generators: the unit vectors of every partially observed
        configuration (kept exactly), the fully observed rows, the
        initial mean, mu_0 when non-zero and Psi's low-rank factor.
        """
        n = obs.num_configs
        partial = [obs_idx for obs_idx, _ in mask_groups if obs_idx.size < n]
        unit = (np.concatenate(partial) if partial
                else np.zeros(0, dtype=int))
        generators = [full_rows, mu[None, :]]
        if self.prior is not None:
            generators.append(self.prior.mu0_vector(n)[None, :])
            generators.append(self.prior.psi_factors(n)[1].T)
        return SubspaceBasis.spanning(n, unit, np.vstack(generators))

    @staticmethod
    def _group(obs: ObservationSet, basis: SubspaceBasis,
               obs_idx: np.ndarray, apps, full_y: np.ndarray) -> _Group:
        """One mask group; the full group's data is ``full_y``, every
        fully observed row in S-coordinates."""
        apps = np.asarray(apps)
        if obs_idx.size == obs.num_configs:
            return _Group(apps=apps, num_observed=obs_idx.size,
                          pos=np.arange(basis.dim), y=full_y, full=True)
        return _Group(apps=apps, num_observed=obs_idx.size,
                      pos=basis.positions(obs_idx),
                      y=obs.values[apps][:, obs_idx], full=False)

    def _prior_terms(self, basis: SubspaceBasis):
        """``(mu_0, Psi restricted to S, Psi's scale on S-perp)``."""
        prior = self.prior
        if prior is None:
            return None, None, 0.0
        n, r = basis.n, basis.dim
        mu0 = basis.project(prior.mu0_vector(n))
        if prior.psi_is_dense:
            return mu0, prior.psi_matrix(n), 0.0
        psi_scale, factor = prior.psi_factors(n)
        factor_s = basis.project(factor.T)
        return mu0, psi_scale * np.eye(r) + factor_s.T @ factor_s, psi_scale

    def _m_step(self, zs: np.ndarray, cov_sum: np.ndarray, perp_sum: float,
                prior_terms, perp_dims: int):
        """Eq. (4) for mu and Sigma: ``(mu, B, c)`` in S-coordinates.

        ``cov_sum`` and ``perp_sum`` are the summed posterior covariances
        on S and on S-perp; Psi contributes its restriction to S and its
        scale on S-perp.
        """
        m = zs.shape[0]
        prior = self.prior
        if prior is None:
            mu_s = zs.mean(axis=0)
            centered = zs - mu_s
            core = (cov_sum + centered.T @ centered) / m
            return (mu_s,) + psd_core_jitter(core, perp_sum / m, perp_dims)
        mu0, psi_core, psi_scale = prior_terms
        mu_s = (prior.pi * mu0 + zs.sum(axis=0)) / (m + prior.pi)
        centered = zs - mu_s
        dev = mu_s - mu0
        scatter = (cov_sum + centered.T @ centered + psi_core
                   + prior.pi * np.outer(dev, dev))
        return (mu_s,) + psd_core_jitter(scatter / (m + prior.nu),
                                         (perp_sum + psi_scale)
                                         / (m + prior.nu), perp_dims)

    # ------------------------------------------------------------------
    @staticmethod
    def _dense_group_posterior(sigma_inv: np.ndarray, noise_var: float,
                               obs_idx: np.ndarray, mu: np.ndarray,
                               y_rows: np.ndarray, n: int):
        """Literal Eq. (3) for one mask group, as a stacked solve.

        Mathematically identical to calling
        :func:`repro.core.linalg.dense_posterior` once per application,
        but the O(n^3) precision inverse is computed once per group and
        the per-application means collapse into a single matrix product.
        The oracle and the Woodbury ablation run it.
        """
        indicator = np.zeros(n)
        indicator[obs_idx] = 1.0
        precision = np.diag(indicator / noise_var) + sigma_inv
        cov = np.linalg.inv(precision)
        y_full = np.zeros((y_rows.shape[0], n))
        y_full[:, obs_idx] = y_rows
        rhs = indicator * y_full / noise_var + sigma_inv @ mu
        zhat_rows = rhs @ cov.T
        return symmetrize(cov), zhat_rows


def _subspace_posterior(core: np.ndarray, scale: float, noise_var: float,
                        group: _Group, mu_s: np.ndarray, perp_dims: int):
    """Eq. (3) for one mask group, in S-coordinates.

    Returns ``(cov, means, logliks, perp_var)``: the posterior covariance
    restricted to S (r x r), the group's posterior means in
    S-coordinates, each application's observed-data log-likelihood, and
    the posterior variance on S-perp.  A partial mask lies inside S, so
    S-perp keeps its prior variance c; a full mask observes S-perp too,
    where each direction is a scalar prior c under noise sigma^2.
    """
    pos = group.pos
    r = core.shape[0]
    if group.full:
        # Everything observed: with K = B + sigma^2 I,
        #   Cov = sigma^2 I - sigma^4 K^{-1}  and  gain = I - sigma^2 K^{-1},
        # which stays accurate when sigma^2 << B, where the general form
        # B - B K^{-1} B cancels down to about sigma^2.
        chol = cholesky_factor(symmetrize(core + noise_var * np.eye(r)))
        k_inv = cholesky_solve(chol, np.eye(r))
        gain = np.eye(r) - noise_var * k_inv
        cov = symmetrize(noise_var * np.eye(r) - noise_var ** 2 * k_inv)
        perp_var = scale * noise_var / (scale + noise_var)
        perp_logdet = perp_dims * np.log(scale + noise_var)
    else:
        b_cols = core[:, pos]                              # (r, k)
        chol = cholesky_factor(
            symmetrize(b_cols[pos] + noise_var * np.eye(pos.size)))
        gain = cholesky_solve(chol, b_cols.T).T
        cov = symmetrize(core - gain @ b_cols.T)
        perp_var = scale
        perp_logdet = 0.0
    residuals = group.y - mu_s[pos]
    means = mu_s + residuals @ gain.T
    alphas = cholesky_solve(chol, residuals.T)
    quads = np.einsum("km,km->m", residuals.T, alphas)
    logdet = cholesky_logdet(chol) + perp_logdet
    logliks = -0.5 * (quads + logdet + group.num_observed * np.log(2 * np.pi))
    return cov, means, logliks, perp_var
