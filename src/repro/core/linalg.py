"""Numerical linear algebra for the EM engine.

Three concerns live here:

* **Stability** — covariance iterates must stay symmetric positive
  definite through hundreds of floating-point updates
  (:func:`symmetrize`, :func:`psd_core_jitter`).
* **Dimension** — every EM quantity stays inside one fixed subspace S of
  R^n (docs/MATH.md, "Exact subspace E-step").  :class:`SubspaceBasis`
  is an orthonormal basis Q of S; a covariance held as
  ``Q core Q' + c (I - Q Q')`` is updated through its r x r ``core`` and
  the scalar ``c``, and is materialized only on request.  Its r x r
  systems are factored and solved by :func:`cholesky_factor` and
  :func:`cholesky_solve`, LAPACK called directly.
* **The literal oracle** — the dense Eq. (3) path the subspace engine is
  tested against.  The E-step posterior

      Cov(z_i) = (diag(L_i)/sigma^2 + Sigma^{-1})^{-1}

  is an n x n inverse per application if computed naively
  (:func:`dense_posterior`); its Woodbury form over the k = |Omega_i|
  observed coordinates,

      Cov(z_i) = Sigma - Sigma[:, O] (Sigma[O, O] + sigma^2 I)^{-1} Sigma[O, :],
      E(z_i)   = mu + Sigma[:, O] (Sigma[O, O] + sigma^2 I)^{-1} (y[O] - mu[O]),

  is :class:`MaskedPosterior`, which the oracle uses for its
  log-likelihood (memoized by :class:`PosteriorCache`).
"""

from __future__ import annotations

import collections
import hashlib
from typing import Tuple

import numpy as np
from scipy import linalg as sla

from repro.errors import CovarianceError
from repro.obs import get_metrics, start_timer, stop_timer

_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """The symmetric part ``(A + A') / 2``."""
    return 0.5 * (a + a.T)


def nearest_psd_jitter(a: np.ndarray, max_tries: int = 12) -> np.ndarray:
    """Return ``a`` with just enough diagonal jitter to be Cholesky-able.

    The dense form of :func:`psd_core_jitter` (a matrix with no
    complement to carry), used by the literal Eq. (3) oracle.
    """
    core, _ = psd_core_jitter(a, 0.0, 0, max_tries)
    return core


def psd_core_jitter(core: np.ndarray, scale: float, perp_dims: int,
                    max_tries: int = 12) -> Tuple[np.ndarray, float]:
    """Jitter ``Sigma = Q core Q' + scale (I - Q Q')`` until Cholesky-able.

    ``core`` is Sigma restricted to a subspace S (r x r, in an orthonormal
    basis Q) and ``scale`` its value on the ``perp_dims``-dimensional
    complement.  The result is exactly what jittering the materialized
    n x n Sigma would give, at O(r^3): the same jitter ``j`` is added to
    ``core``'s diagonal and to ``scale``.  ``j`` starts at a relative
    1e-12 of Sigma's mean diagonal and grows by 10x per failed attempt.

    Raises :class:`~repro.errors.CovarianceError` (a
    ``np.linalg.LinAlgError`` subclass, so legacy handlers keep working)
    when an entry is non-finite or the matrix cannot be repaired within
    ``max_tries`` escalations — either indicates a genuinely broken
    update, not roundoff.  Escalations past the first attempt are counted
    on the ambient metrics registry (``linalg_jitter_escalations_total``).
    With no complement (``perp_dims == 0``) the scalar has no meaning and
    is returned as 0.
    """
    core = symmetrize(np.asarray(core, dtype=float))
    scale = float(scale) if perp_dims else 0.0
    if not (np.all(np.isfinite(core)) and np.isfinite(scale)):
        raise CovarianceError(
            "covariance matrix contains non-finite entries")
    r = core.shape[0]
    mean_diag = ((float(np.trace(core)) + perp_dims * scale)
                 / max(r + perp_dims, 1))
    if mean_diag <= 0 or not np.isfinite(mean_diag):
        mean_diag = 1.0
    jitter = 0.0
    for attempt in range(max_tries):
        try:
            np.linalg.cholesky(core + jitter * np.eye(r))
            if perp_dims and not scale + jitter > 0.0:
                raise np.linalg.LinAlgError("complement not positive")
            break
        except np.linalg.LinAlgError:
            jitter = mean_diag * 10.0 ** (attempt - 12)
            if attempt:
                get_metrics().inc("linalg_jitter_escalations_total")
    else:
        raise CovarianceError(
            "matrix is not repairable to positive definite"
        )
    if jitter:
        core = core + jitter * np.eye(r)
        scale = scale + jitter if perp_dims else 0.0
    return core, scale


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]``.

    LAPACK ``dpotrf`` called directly, so the result is bit for bit
    scipy's without its batching and array-API wrappers.  The lower
    triangle holds the factor and the upper one keeps ``a``'s entries.
    Raises ``LinAlgError`` when a leading minor is not positive
    definite; a 0 x 0 ``a`` gives a 0 x 0 factor.
    """
    factor, info = _POTRF(a, lower=True, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return factor


def cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((factor, True), b, check_finite=False)``.

    LAPACK ``dpotrs`` on a :func:`cholesky_factor` result, bit for bit
    scipy's; an empty ``b`` gives an empty result of its shape.
    """
    if b.size == 0:
        return np.empty_like(b)
    x, info = _POTRS(factor, b, lower=True)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _unit_and_rest(n: int, unit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct coordinates of ``unit`` and the other ones.

    Both come from one boolean mask over ``[0, n)``; a coordinate
    outside that range raises ``ValueError``.
    """
    unit = np.asarray(unit, dtype=int)
    if unit.size and (unit.min() < 0 or unit.max() >= n):
        raise ValueError(f"unit coordinates must lie in [0, {n}), got "
                         f"[{unit.min()}, {unit.max()}]")
    in_unit = np.zeros(n, dtype=bool)
    in_unit[unit] = True
    return np.flatnonzero(in_unit), np.flatnonzero(~in_unit)


class SubspaceBasis:
    """An orthonormal basis Q (n x r) of a subspace S of R^n.

    Q is ``[E_U | Q_V]``: the unit vectors of the coordinates ``unit`` (U,
    kept exactly), then ``block``, orthonormal columns supported on the
    remaining coordinates ``rest`` (V).  So the first ``len(unit)``
    S-coordinates of a vector are its raw entries at U, and a covariance
    restricted to S has ``Sigma[U, U]`` as its leading block.

    Args:
        n: Dimension of the ambient space.
        unit: Coordinates in ``[0, n)`` whose unit vectors lie in S;
            repeats count once.
        block: ``(n - len(unit), r2)`` orthonormal columns on the rest.
    """

    def __init__(self, n: int, unit: np.ndarray, block: np.ndarray) -> None:
        self.n = int(n)
        self.unit, self.rest = _unit_and_rest(self.n, unit)
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.rest.size:
            raise ValueError(f"block must have {self.rest.size} rows, "
                             f"got shape {block.shape}")
        self.block = block

    @classmethod
    def identity(cls, n: int) -> "SubspaceBasis":
        """S = R^n with Q = I: S-coordinates are the raw coordinates."""
        return cls(n, np.arange(n), np.zeros((0, 0)))

    @classmethod
    def spanning(cls, n: int, unit: np.ndarray,
                 generators: np.ndarray) -> "SubspaceBasis":
        """The smallest basis holding ``unit``'s unit vectors and every row.

        ``generators`` is ``(g, n)``.  Their components off ``unit`` are
        normalized and orthonormalized by SVD; directions whose singular
        value falls below ``max(dims) * eps`` of the largest are roundoff
        and are dropped.
        """
        unit, rest = _unit_and_rest(int(n), unit)
        components = np.asarray(generators, dtype=float)[:, rest]
        norms = np.linalg.norm(components, axis=1)
        components = components[norms > 0] / norms[norms > 0, None]
        block = np.zeros((rest.size, 0))
        if components.size:
            left, singular, _ = np.linalg.svd(components.T,
                                              full_matrices=False)
            tol = singular[0] * max(components.shape) * np.finfo(float).eps
            block = left[:, singular > tol]
        return cls(n, unit, block)

    @property
    def dim(self) -> int:
        """r, the dimension of S."""
        return self.unit.size + self.block.shape[1]

    @property
    def perp_dims(self) -> int:
        """n - r, the dimension of the orthogonal complement of S."""
        return self.n - self.dim

    def positions(self, idx: np.ndarray) -> np.ndarray:
        """S-coordinates of the unit vectors of ``idx`` (a subset of U)."""
        return np.searchsorted(self.unit, idx)

    def project(self, x: np.ndarray) -> np.ndarray:
        """``Q' x`` along the last axis of ``x``."""
        x = np.asarray(x, dtype=float)
        return np.concatenate([x[..., self.unit],
                               x[..., self.rest] @ self.block], axis=-1)

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """``Q c`` along the last axis of ``coords``: back to R^n."""
        coords = np.asarray(coords, dtype=float)
        u = self.unit.size
        out = np.empty(coords.shape[:-1] + (self.n,))
        out[..., self.unit] = coords[..., :u]
        out[..., self.rest] = coords[..., u:] @ self.block.T
        return out

    def diagonal(self, core: np.ndarray, scale: float) -> np.ndarray:
        """``diag(Q core Q' + scale (I - Q Q'))`` at O(n r^2)."""
        u = self.unit.size
        out = np.empty(self.n)
        out[self.unit] = np.diag(core)[:u]
        q = self.block
        out[self.rest] = (np.einsum("ij,ij->i", q @ core[u:, u:], q)
                          + scale * (1.0 - np.einsum("ij,ij->i", q, q)))
        return out

    def matrix(self, core: np.ndarray, scale: float) -> np.ndarray:
        """``Q core Q' + scale (I - Q Q')`` materialized as ``(n, n)``."""
        u = self.unit.size
        q = self.block
        unit, rest = self.unit, self.rest
        out = np.empty((self.n, self.n))
        out[np.ix_(unit, unit)] = core[:u, :u]
        cross = core[:u, u:] @ q.T
        out[np.ix_(unit, rest)] = cross
        out[np.ix_(rest, unit)] = cross.T
        inner = core[u:, u:] - scale * np.eye(q.shape[1])
        out[np.ix_(rest, rest)] = q @ inner @ q.T + scale * np.eye(rest.size)
        return symmetrize(out)


def cholesky_logdet(chol_lower: np.ndarray) -> float:
    """``log det(A)`` from A's lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(chol_lower))))


class MaskedPosterior:
    """Posterior of z given observations at a fixed index subset.

    Precomputes everything that depends only on (Sigma, sigma^2, Omega)
    so that the per-application mean is a cheap matrix-vector product.

    Args:
        sigma_mat: Prior covariance Sigma, ``(n, n)``, SPD.
        noise_var: Observation noise sigma^2 (> 0).
        obs_idx: Sorted observed configuration indices Omega.
    """

    def __init__(self, sigma_mat: np.ndarray, noise_var: float,
                 obs_idx: np.ndarray) -> None:
        if noise_var <= 0:
            raise ValueError(f"noise_var must be positive, got {noise_var}")
        obs_idx = np.asarray(obs_idx, dtype=int)
        if obs_idx.ndim != 1 or obs_idx.size == 0:
            raise ValueError("obs_idx must be a non-empty 1-D index array")
        n = sigma_mat.shape[0]
        if sigma_mat.shape != (n, n):
            raise ValueError(f"Sigma must be square, got {sigma_mat.shape}")
        self.obs_idx = obs_idx
        self.noise_var = float(noise_var)

        started = start_timer()
        s_no = sigma_mat[:, obs_idx]                       # (n, k)
        s_oo = symmetrize(s_no[obs_idx, :] + noise_var * np.eye(obs_idx.size))
        self._chol = sla.cho_factor(s_oo, lower=True, check_finite=False)
        # Gain G = Sigma[:, O] (Sigma[O, O] + noise I)^{-1}, (n, k).
        self._gain = sla.cho_solve(self._chol, s_no.T,
                                   check_finite=False).T
        self._cov = symmetrize(sigma_mat - self._gain @ s_no.T)
        get_metrics().inc("linalg_posterior_factorizations_total")
        stop_timer("linalg_posterior_seconds", started)

    @property
    def covariance(self) -> np.ndarray:
        """Cov(z_i), identical for every application with this mask."""
        return self._cov

    def mean(self, mu: np.ndarray, y_obs: np.ndarray) -> np.ndarray:
        """E(z_i) for one application's observed values ``y_obs``.

        ``y_obs`` must be ordered like ``obs_idx``.
        """
        if y_obs.shape != self.obs_idx.shape:
            raise ValueError(
                f"y_obs shape {y_obs.shape} != obs count {self.obs_idx.shape}"
            )
        residual = y_obs - mu[self.obs_idx]
        return mu + self._gain @ residual

    def means(self, mu: np.ndarray, y_obs_rows: np.ndarray) -> np.ndarray:
        """E(z_i) for a batch of applications sharing this mask.

        ``y_obs_rows`` has shape ``(m, k)``; returns ``(m, n)``.  One
        matrix product replaces m matrix-vector products.
        """
        if y_obs_rows.ndim != 2 or y_obs_rows.shape[1] != self.obs_idx.size:
            raise ValueError(
                f"y_obs_rows must be (m, {self.obs_idx.size}), "
                f"got {y_obs_rows.shape}"
            )
        residuals = y_obs_rows - mu[self.obs_idx]
        return mu + residuals @ self._gain.T

    def logliks(self, mu: np.ndarray, y_obs_rows: np.ndarray) -> np.ndarray:
        """Observed-data log-likelihood of each application in a batch."""
        if y_obs_rows.ndim != 2 or y_obs_rows.shape[1] != self.obs_idx.size:
            raise ValueError(
                f"y_obs_rows must be (m, {self.obs_idx.size}), "
                f"got {y_obs_rows.shape}"
            )
        residuals = y_obs_rows - mu[self.obs_idx]
        alphas = sla.cho_solve(self._chol, residuals.T, check_finite=False)
        quads = np.einsum("km,km->m", residuals.T, alphas)
        k = self.obs_idx.size
        logdet = cholesky_logdet(self._chol[0])
        return -0.5 * (quads + logdet + k * np.log(2 * np.pi))

    def observed_loglik(self, mu: np.ndarray, y_obs: np.ndarray) -> float:
        """Log N(y_obs | mu[O], Sigma[O, O] + sigma^2 I).

        This is one application's contribution to the observed-data
        log-likelihood at the current parameters.
        """
        residual = y_obs - mu[self.obs_idx]
        alpha = sla.cho_solve(self._chol, residual, check_finite=False)
        k = self.obs_idx.size
        logdet = cholesky_logdet(self._chol[0])
        return float(-0.5 * (residual @ alpha + logdet + k * np.log(2 * np.pi)))


def dense_posterior(sigma_mat: np.ndarray, noise_var: float,
                    obs_idx: np.ndarray, mu: np.ndarray,
                    y_obs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Literal Eq. (3): the dense-inverse form of the posterior.

    Computes ``C = (diag(L)/sigma^2 + Sigma^{-1})^{-1}`` and
    ``zhat = C (diag(L) y / sigma^2 + Sigma^{-1} mu)`` by direct solves.
    Mathematically identical to :class:`MaskedPosterior` but O(n^3) per
    call; retained for the correctness cross-check and the Woodbury
    ablation benchmark.
    """
    started = start_timer()
    n = sigma_mat.shape[0]
    indicator = np.zeros(n)
    indicator[np.asarray(obs_idx, dtype=int)] = 1.0
    y_full = np.zeros(n)
    y_full[np.asarray(obs_idx, dtype=int)] = y_obs

    sigma_inv = np.linalg.inv(nearest_psd_jitter(sigma_mat))
    precision = np.diag(indicator / noise_var) + sigma_inv
    cov = np.linalg.inv(precision)
    zhat = cov @ (indicator * y_full / noise_var + sigma_inv @ mu)
    stop_timer("linalg_dense_posterior_seconds", started)
    return zhat, symmetrize(cov)


class PosteriorCache:
    """Memoizes :class:`MaskedPosterior` factorizations for the oracle.

    Keyed on a content digest of ``(Sigma, sigma^2, Omega)``: two
    E-step groups — or two EM iterations, or two fits — presenting
    bit-identical parameters share one Cholesky factorization, so a
    cache hit is numerically indistinguishable from recomputation.  Only
    the literal Eq. (3) path (``EMConfig(use_woodbury=False)``) uses it;
    the subspace engine's r x r factorizations are cheaper than a key.

    Args:
        maxsize: Entries retained (LRU eviction).
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "collections.OrderedDict[bytes, MaskedPosterior]" = (
            collections.OrderedDict())
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(sigma_mat: np.ndarray, noise_var: float,
             obs_idx: np.ndarray) -> bytes:
        digest = hashlib.sha1()
        digest.update(repr(sigma_mat.shape).encode())
        digest.update(np.ascontiguousarray(sigma_mat, dtype=float).tobytes())
        digest.update(np.float64(noise_var).tobytes())
        digest.update(np.ascontiguousarray(obs_idx, dtype=np.int64).tobytes())
        return digest.digest()

    def get(self, sigma_mat: np.ndarray, noise_var: float,
            obs_idx: np.ndarray) -> MaskedPosterior:
        """The memoized posterior for ``(Sigma, sigma^2, Omega)``."""
        obs_idx = np.asarray(obs_idx, dtype=int)
        key = self._key(sigma_mat, noise_var, obs_idx)
        posterior = self._entries.get(key)
        if posterior is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            get_metrics().inc("linalg_posterior_cache_hits_total")
            return posterior
        self.misses += 1
        posterior = MaskedPosterior(sigma_mat, noise_var, obs_idx)
        self._entries[key] = posterior
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return posterior

    def clear(self) -> None:
        """Drop every cached factorization."""
        self._entries.clear()
