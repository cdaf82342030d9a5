"""The normal-inverse-Wishart hyperprior of LEO's graphical model.

The top layer of the hierarchy (paper Eq. 2) places a conjugate
normal-inverse-Wishart prior on the shared mean and covariance:

    mu, Sigma ~ N(mu | mu_0, Sigma / pi) * IW(Sigma | nu, Psi)

The paper fixes the hyper-parameters to mu_0 = 0, pi = 1, Psi = I, nu = 1
(Section 5.2).  :class:`NIWPrior` carries them and knows how they enter
the M-step; ``None`` disables the prior entirely, turning EM into pure
maximum likelihood (useful for the monotonicity property tests, since the
exact-ML M-step guarantees the observed-data likelihood never decreases).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

import numpy as np

#: Psi as ``(scale, F)``: ``scale * I + F F'`` with F of shape (n, p).
FactoredPsi = Tuple[float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class NIWPrior:
    """Normal-inverse-Wishart hyper-parameters.

    Attributes:
        mu0: Prior mean of mu.  A scalar broadcasts across configurations.
        pi: Prior pseudo-count tying mu to mu0 (``pi = 0`` removes the
            pull entirely).
        psi: Prior scale matrix of Sigma.  A scalar s means ``s * I``; a
            pair ``(s, F)`` means ``s * I + F F'``, which keeps the fit in
            its low-dimensional subspace; an ``(n, n)`` array is used as
            given (and makes the fit run on all of R^n).
        nu: Prior degrees of freedom of Sigma.
    """

    mu0: Union[float, np.ndarray] = 0.0
    pi: float = 1.0
    psi: Union[float, FactoredPsi, np.ndarray] = 1.0
    nu: float = 1.0

    def __post_init__(self) -> None:
        if self.pi < 0:
            raise ValueError(f"pi must be >= 0, got {self.pi}")
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if np.isscalar(self.psi):
            if self.psi < 0:
                raise ValueError(f"scalar psi must be >= 0, got {self.psi}")
        elif isinstance(self.psi, tuple):
            scale, factor = self.psi
            factor = np.asarray(factor, dtype=float)
            if scale < 0:
                raise ValueError(f"psi scale must be >= 0, got {scale}")
            if factor.ndim != 2:
                raise ValueError(
                    f"psi factor must be 2-D (n, p), got {factor.shape}")
            object.__setattr__(self, "psi", (float(scale), factor))
        else:
            psi = np.asarray(self.psi)
            if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
                raise ValueError(f"matrix psi must be square, got {psi.shape}")
            if not np.allclose(psi, psi.T):
                raise ValueError("matrix psi must be symmetric")

    @classmethod
    def paper_default(cls) -> "NIWPrior":
        """The paper's hyper-parameters: mu0=0, pi=1, Psi=I, nu=1."""
        return cls(mu0=0.0, pi=1.0, psi=1.0, nu=1.0)

    def mu0_vector(self, n: int) -> np.ndarray:
        """mu0 materialized as a length-``n`` vector."""
        if np.isscalar(self.mu0):
            return np.full(n, float(self.mu0))
        mu0 = np.asarray(self.mu0, dtype=float)
        if mu0.shape != (n,):
            raise ValueError(f"mu0 has shape {mu0.shape}, expected ({n},)")
        return mu0.copy()

    @property
    def psi_is_dense(self) -> bool:
        """Whether Psi was given as a full matrix (no low-rank form)."""
        return not (np.isscalar(self.psi) or isinstance(self.psi, tuple))

    def psi_factors(self, n: int) -> FactoredPsi:
        """Psi as ``(scale, F)`` with ``Psi = scale * I + F F'``.

        F has shape ``(n, p)``; a scalar Psi has ``p = 0``.  A dense
        Psi has no such form and raises ``ValueError``.
        """
        if np.isscalar(self.psi):
            return float(self.psi), np.zeros((n, 0))
        if not isinstance(self.psi, tuple):
            raise ValueError("a dense psi has no low-rank form; "
                             "use psi_matrix()")
        scale, factor = self.psi
        if factor.shape[0] != n:
            raise ValueError(f"psi factor has {factor.shape[0]} rows, "
                             f"expected {n}")
        return scale, factor

    def psi_matrix(self, n: int) -> np.ndarray:
        """Psi materialized as an ``n x n`` matrix."""
        if not self.psi_is_dense:
            scale, factor = self.psi_factors(n)
            low_rank = factor @ factor.T
            return scale * np.eye(n) + 0.5 * (low_rank + low_rank.T)
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (n, n):
            raise ValueError(f"psi has shape {psi.shape}, expected ({n}, {n})")
        return psi.copy()


#: Sentinel meaning "no prior": pure maximum-likelihood EM updates.
ML_PRIOR: Optional[NIWPrior] = None
