"""Strategies for choosing which configurations to sample online.

The motivational example observes 6 uniformly spaced core counts
(Section 2: "5, 10, ..., 30 cores"); the full evaluation lets LEO and the
online baseline "sample randomly select 20 configurations each"
(Section 6.3).  Both strategies are provided, plus a latin-hypercube-like
stratified option for the sampling ablation.

**Determinism across experiment cells.**  The randomized samplers carry
a private ``numpy`` Generator whose stream advances with every
:meth:`~Sampler.select` call.  Two hazards follow when an experiment
sweep runs many cells (see docs/PARALLELISM.md):

* an *unseeded* sampler (``seed=None``) draws from OS entropy, so the
  same cell gives different answers on different runs;
* a sampler instance *shared* across cells couples them — a cell's
  draws then depend on which cells ran before it.

The rule every sweep follows: construct a fresh sampler inside each
cell, seeded from the cell's payload (``RandomSampler(seed=cell_seed)``).
:func:`cell_seed` derives that seed.  The constructor seed is kept on
``self.seed`` so tests and harness code can verify it was set.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Optional

import numpy as np


def cell_seed(base_seed: int, *components: object) -> int:
    """A per-cell seed derived stably from ``base_seed`` and labels.

    Uses SHA-256 over the reprs, so the same (benchmark, estimator,
    trial) cell gets the same seed in every process on every platform —
    unlike ``hash()``, which is salted per interpreter.  The result fits
    in 63 bits, valid for ``np.random.default_rng``.
    """
    digest = hashlib.sha256(repr((base_seed,) + components).encode())
    return int.from_bytes(digest.digest()[:8], "little") >> 1


class Sampler(abc.ABC):
    """Chooses ``count`` distinct configuration indices out of ``n``."""

    name: str = "sampler"

    @abc.abstractmethod
    def select(self, num_configs: int, count: int) -> np.ndarray:
        """Return sorted unique indices, shape ``(count,)``."""

    @staticmethod
    def _validate(num_configs: int, count: int) -> None:
        if num_configs < 1:
            raise ValueError(f"num_configs must be >= 1, got {num_configs}")
        if not 1 <= count <= num_configs:
            raise ValueError(
                f"count must be in [1, {num_configs}], got {count}"
            )


class RandomSampler(Sampler):
    """Uniformly random distinct configurations (the Section 6.3 setup)."""

    name = "random"

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def select(self, num_configs: int, count: int) -> np.ndarray:
        self._validate(num_configs, count)
        picks = self._rng.choice(num_configs, size=count, replace=False)
        return np.sort(picks)


class GridSampler(Sampler):
    """Evenly spaced configurations (the Section 2 setup).

    For ``n = 32, count = 6`` this yields indices close to the paper's
    {5, 10, 15, 20, 25, 30} core choices.
    """

    name = "grid"

    def select(self, num_configs: int, count: int) -> np.ndarray:
        self._validate(num_configs, count)
        # Centers of `count` equal-width bins over the index range.
        centers = (np.arange(count) + 0.5) * num_configs / count
        picks = np.clip(np.floor(centers).astype(int), 0, num_configs - 1)
        return np.unique(picks)


class StratifiedSampler(Sampler):
    """One random pick per equal-width stratum of the index range.

    Combines the coverage of the grid with the tie-breaking of random
    sampling; used by the sampling-strategy ablation.
    """

    name = "stratified"

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def select(self, num_configs: int, count: int) -> np.ndarray:
        self._validate(num_configs, count)
        edges = np.linspace(0, num_configs, count + 1).astype(int)
        picks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            hi = max(hi, lo + 1)
            picks.append(int(self._rng.integers(lo, hi)))
        return np.unique(picks)
