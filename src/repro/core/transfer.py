"""Cross-platform transfer priors for the hierarchical Bayesian model.

The paper pools every prior application into one matrix-normal layer,
which is only sound when all priors were observed on the *same* platform.
When prior applications come from different machines (a homogeneous Xeon
box feeding estimates for a new big.LITTLE node, say), naive pooling
injects curves whose shape reflects the wrong hardware.  Following REOH's
probabilistic treatment of heterogeneous devices, this module makes the
platform of origin explicit:

* :class:`PlatformSignature` — a numeric descriptor of a platform
  (derived from :meth:`HeteroTopology.signature`);
* :func:`platform_similarity` — an RBF kernel over signatures;
* :func:`alignment_features` / :func:`map_indices` — map curves between
  configuration spaces of different platforms by nearest physical
  configuration (relative core share, delivered relative frequency, …);
* :class:`TransferPrior` — assembles prior applications from many
  platforms into one effective prior table for a target platform: each
  foreign block is aligned onto the target space and shrunk toward its
  own per-application mean by the platform-similarity weight, and the
  per-platform covariance blocks feed a matrix-``Psi``
  :class:`~repro.core.priors.NIWPrior` instead of the identity.

Degeneracy guarantee: blocks whose platform signature matches the target
exactly (distance 0) and whose space is the target space pass through
untouched — no floating-point transformation — so a same-platform
transfer prior is bit-identical to naive pooling, and ``psi_blend=0``
reproduces the paper's ``Psi = I`` exactly.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.priors import FactoredPsi, NIWPrior
from repro.platform.config_space import Configuration, ConfigurationSpace
from repro.platform.dvfs import NOMINAL_GHZ
from repro.platform.hetero import HeteroConfiguration, HeteroTopology
from repro.platform.topology import Topology

#: Typical magnitude of each signature dimension, used to normalize
#: before the RBF kernel (cores, threads, controllers, min/max GHz,
#: perf/power scale, total TDP, offload speedup).
_SIGNATURE_SCALE = np.array([16.0, 32.0, 2.0, 1.2, 2.9, 1.0, 1.0,
                             270.0, 8.0])


@dataclasses.dataclass(frozen=True)
class PlatformSignature:
    """A named numeric descriptor of one platform."""

    name: str
    features: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 1 or features.size != _SIGNATURE_SCALE.size:
            raise ValueError(
                f"signature features must be a length-"
                f"{_SIGNATURE_SCALE.size} vector, got shape "
                f"{features.shape}")
        object.__setattr__(self, "features", features)


PlatformLike = Union[PlatformSignature, HeteroTopology, Topology]


def signature_of(platform: PlatformLike,
                 name: Optional[str] = None) -> PlatformSignature:
    """Coerce a topology (plain or hetero) to a :class:`PlatformSignature`."""
    if isinstance(platform, PlatformSignature):
        return platform
    if isinstance(platform, HeteroTopology):
        label = name or repr(platform)
        return PlatformSignature(label, platform.signature())
    if isinstance(platform, Topology):
        hetero = HeteroTopology.from_topology(platform)
        label = name or (f"{platform.sockets}x{platform.cores_per_socket}"
                         f"core")
        return PlatformSignature(label, hetero.signature())
    raise TypeError(f"cannot build a platform signature from "
                    f"{type(platform).__name__}")


def platform_distance(a: PlatformLike, b: PlatformLike) -> float:
    """Root-mean-square distance between normalized signatures."""
    fa = signature_of(a).features / _SIGNATURE_SCALE
    fb = signature_of(b).features / _SIGNATURE_SCALE
    return float(np.sqrt(np.mean((fa - fb) ** 2)))


def platform_similarity(a: PlatformLike, b: PlatformLike,
                        length_scale: float = 0.5) -> float:
    """RBF kernel over platform signatures, in (0, 1].

    Identical platforms score exactly 1.0; the ``length_scale`` sets how
    quickly trust in a foreign platform's curves decays with distance.
    """
    if length_scale <= 0:
        raise ValueError(f"length_scale must be positive, "
                         f"got {length_scale}")
    d = platform_distance(a, b)
    if d == 0.0:
        return 1.0
    return float(np.exp(-0.5 * (d / length_scale) ** 2))


def alignment_features(space: ConfigurationSpace) -> np.ndarray:
    """Physical (platform-relative) coordinates of every configuration.

    Columns: core share, thread share, controller share, delivered
    relative per-core speed, offload flag.  These are comparable across
    platforms with different ladder lengths and cluster structure, which
    raw knob indices are not.
    """
    topology = space.topology
    total_cores = topology.total_cores
    total_threads = getattr(topology, "total_threads", total_cores)
    max_mem = topology.memory_controllers
    rows = np.empty((len(space), 5))
    for i, config in enumerate(space):
        if isinstance(config, HeteroConfiguration) \
                and isinstance(topology, HeteroTopology):
            weighted = 0.0
            for k, c in config.active_clusters():
                cluster = topology.clusters[k]
                ghz = config.cluster_speeds[k].effective_ghz(c, cluster.cores)
                weighted += c * cluster.perf_scale * (ghz / NOMINAL_GHZ)
            speed = weighted / config.cores
            offload = 1.0 if config.offload else 0.0
        else:
            speed = config.effective_ghz(total_cores) / NOMINAL_GHZ
            offload = 0.0
        rows[i] = (config.cores / total_cores,
                   config.threads / total_threads,
                   config.memory_controllers / max_mem,
                   speed, offload)
    return rows


def map_indices(source_space: ConfigurationSpace,
                target_space: ConfigurationSpace) -> np.ndarray:
    """For each target configuration, the nearest source configuration.

    Nearest in the physical coordinates of :func:`alignment_features`;
    returns an integer array of length ``len(target_space)`` indexing
    into ``source_space``.
    """
    src = alignment_features(source_space)
    tgt = alignment_features(target_space)
    # (n_tgt, n_src) squared distances, chunked to bound memory.
    out = np.empty(len(tgt), dtype=int)
    chunk = max(1, 8_000_000 // max(len(src), 1))
    for start in range(0, len(tgt), chunk):
        block = tgt[start:start + chunk]
        d2 = ((block[:, None, :] - src[None, :, :]) ** 2).sum(axis=2)
        out[start:start + chunk] = np.argmin(d2, axis=1)
    return out


@dataclasses.dataclass(frozen=True)
class PlatformBlock:
    """Prior applications observed on one platform."""

    signature: PlatformSignature
    space: ConfigurationSpace
    rates: np.ndarray
    powers: np.ndarray
    names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        n = len(self.space)
        if rates.ndim != 2 or rates.shape[1] != n:
            raise ValueError(f"rates must be (apps, {n}), "
                             f"got {rates.shape}")
        if powers.shape != rates.shape:
            raise ValueError(f"powers shape {powers.shape} must match "
                             f"rates shape {rates.shape}")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "powers", powers)


@dataclasses.dataclass(frozen=True)
class TransferredPrior:
    """The effective prior tables for a target platform.

    ``blocks`` carries ``(start, stop, weight)`` row spans per source
    platform — the structure :func:`block_psi` and
    :class:`~repro.estimators.transfer.TransferAwareLEO` use to build
    per-platform covariance blocks.
    """

    rates: np.ndarray
    powers: np.ndarray
    blocks: Tuple[Tuple[int, int, float], ...]
    names: Tuple[str, ...]

    @property
    def weights(self) -> np.ndarray:
        """Per-row platform-similarity weight."""
        out = np.empty(self.rates.shape[0])
        for start, stop, w in self.blocks:
            out[start:stop] = w
        return out


class TransferPrior:
    """Assemble prior applications from many platforms for a target.

    Usage::

        prior = TransferPrior(length_scale=0.5)
        prior.add_platform(xeon_topology, xeon_space, rates, powers)
        prior.add_platform(old_node, old_space, rates2, powers2)
        transferred = prior.build(big_little, hetero_space(big_little))
    """

    def __init__(self, length_scale: float = 0.5) -> None:
        if length_scale <= 0:
            raise ValueError(f"length_scale must be positive, "
                             f"got {length_scale}")
        self.length_scale = length_scale
        self._blocks: List[PlatformBlock] = []

    def add_platform(self, platform: PlatformLike,
                     space: ConfigurationSpace,
                     rates: np.ndarray, powers: np.ndarray,
                     names: Sequence[str] = ()) -> None:
        """Register prior applications observed on ``platform``."""
        self._blocks.append(PlatformBlock(
            signature=signature_of(platform), space=space,
            rates=np.asarray(rates, dtype=float),
            powers=np.asarray(powers, dtype=float),
            names=tuple(names)))

    @property
    def num_applications(self) -> int:
        return sum(block.rates.shape[0] for block in self._blocks)

    def build(self, platform: PlatformLike,
              target_space: ConfigurationSpace) -> TransferredPrior:
        """The effective prior tables on ``target_space``.

        Same-platform blocks (signature distance exactly 0 on the target
        space) pass through untouched.  Foreign blocks are aligned by
        nearest physical configuration and shrunk toward their own
        per-application mean by the similarity weight, so a distant
        platform contributes mostly its scale, not its shape.
        """
        if not self._blocks:
            raise ValueError("no platforms registered; call "
                             "add_platform() first")
        target = signature_of(platform)
        rate_rows: List[np.ndarray] = []
        power_rows: List[np.ndarray] = []
        spans: List[Tuple[int, int, float]] = []
        names: List[str] = []
        start = 0
        for block in self._blocks:
            weight = platform_similarity(block.signature, target,
                                         self.length_scale)
            native = (platform_distance(block.signature, target) == 0.0
                      and len(block.space) == len(target_space))
            if native:
                rates, powers = block.rates, block.powers
            else:
                idx = map_indices(block.space, target_space)
                rates, powers = _offload_response(
                    block.rates[:, idx], block.powers[:, idx],
                    block.space, idx, target_space,
                    getattr(platform, "offload", None))
                rates = self._shrink(rates, weight)
                powers = self._shrink(powers, weight)
            rate_rows.append(rates)
            power_rows.append(powers)
            stop = start + rates.shape[0]
            spans.append((start, stop, weight))
            names.extend(block.names or
                         [f"{block.signature.name}/{i}"
                          for i in range(rates.shape[0])])
            start = stop
        return TransferredPrior(
            rates=np.vstack(rate_rows), powers=np.vstack(power_rows),
            blocks=tuple(spans), names=tuple(names))

    @staticmethod
    def _shrink(aligned: np.ndarray, weight: float) -> np.ndarray:
        mean = aligned.mean(axis=1, keepdims=True)
        return weight * aligned + (1.0 - weight) * mean


def _offload_response(rates: np.ndarray, powers: np.ndarray,
                      source_space: ConfigurationSpace, idx: np.ndarray,
                      target_space: ConfigurationSpace,
                      device) -> Tuple[np.ndarray, np.ndarray]:
    """Pass aligned foreign curves through the target's offload device.

    A source platform without the device has no configurations that
    offload, so an offloading target column maps to a CPU-only source
    configuration and would inherit its CPU rate — wildly wrong when
    the per-heartbeat transfer overhead dominates.  Apply the device's
    analytic response instead: the fixed-function speedup saturated by
    the transfer time (``1 / (1/(speedup*r) + transfer)``) and the
    device's active power on top of the aligned wall power, matching
    :class:`repro.platform.hetero.HeteroPowerModel`.
    """
    if device is None:
        return rates, powers
    cols = [j for j, config in enumerate(target_space)
            if getattr(config, "offload", False)
            and not getattr(source_space[int(idx[j])], "offload", False)]
    if not cols:
        return rates, powers
    rates = np.array(rates, dtype=float)
    powers = np.array(powers, dtype=float)
    r = rates[:, cols]
    rates[:, cols] = 1.0 / (1.0 / (device.speedup * r)
                            + device.transfer_seconds)
    powers[:, cols] = powers[:, cols] + device.active_watts
    return rates, powers


def block_psi(std_prior: np.ndarray,
              blocks: Sequence[Tuple[int, int, float]],
              blend: float) -> Union[float, FactoredPsi]:
    """Per-platform covariance blocks blended with the identity.

    ``std_prior`` is the prior table in the estimator's standardized
    space.  Each platform block contributes its own empirical
    configuration covariance, weighted by its similarity to the target;
    the result is ``Psi = (1-blend) * I + blend * S``, symmetric positive
    semi-definite, returned in factored form ``(1 - blend, F)`` with
    ``blend * S = F F'`` (F holds one scaled, centered prior row per
    column), so the fit stays in its low-dimensional subspace.  It is
    exactly the scalar ``1.0`` (the paper's ``Psi = I``) when
    ``blend == 0``.
    """
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must be in [0, 1], got {blend}")
    if blend == 0.0:
        return 1.0
    columns: List[np.ndarray] = []
    weight_rows = 0.0
    for start, stop, weight in blocks:
        rows = std_prior[start:stop]
        if rows.shape[0] == 0:
            continue
        centered = rows - rows.mean(axis=0)
        columns.append(np.sqrt(weight) * centered.T)
        weight_rows += weight * rows.shape[0]
    if weight_rows <= 0.0:
        return 1.0
    factor = np.sqrt(blend / weight_rows) * np.hstack(columns)
    return 1.0 - blend, factor
