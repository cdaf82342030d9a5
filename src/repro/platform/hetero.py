"""Heterogeneous platforms: asymmetric core clusters and offload devices.

The paper evaluates on a homogeneous dual-Xeon, but the strongest related
work (REOH's probabilistic network for heterogeneous devices, Coutinho et
al.'s big.LITTLE trade-off study) shows the estimate→Pareto→LP loop pays
off far more when core types differ.  This module makes heterogeneity a
first-class platform concept:

* :class:`CoreCluster` — a named group of identical cores with its own
  frequency ladder, TDP, and per-core performance/power scaling relative
  to the paper's nominal Xeon core;
* :class:`OffloadDevice` — a GPU-like fixed-function accelerator with a
  compute speedup and a per-heartbeat transfer overhead;
* :class:`HeteroTopology` — an ordered collection of clusters plus an
  optional offload device;
* :class:`HeteroConfiguration` / :func:`hetero_space` — configurations
  carrying per-cluster core counts and per-cluster DVFS states, growing
  the space well beyond the paper's 1024;
* :class:`HeteroPerformanceModel` / :class:`HeteroPowerModel` /
  :class:`HeteroMachine` — ground-truth models composing per-cluster
  contributions.

Degeneracy guarantee
--------------------
A homogeneous :class:`HeteroTopology` built with :meth:`from_topology`
degenerates *exactly* to today's behaviour: :func:`hetero_space` returns
the plain paper space, and the hetero models route plain
:class:`Configuration` objects through the original
:class:`PerformanceModel`/:class:`PowerModel` code, so every estimate,
Pareto frontier, and LP schedule is bit-identical to the homogeneous
path.  Additionally the per-cluster composition is written so that a
single-cluster allocation with unit scaling reduces to the *same floating
point operations* as the base models (``x * 1.0``, ``0.0 + x`` and
``x / x`` are exact in IEEE 754), which the degeneracy tests assert at
rtol=0.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.platform.config_space import Configuration, ConfigurationSpace
from repro.platform.dvfs import (
    DVFS_FREQUENCIES_GHZ,
    NOMINAL_GHZ,
    SpeedSetting,
    dynamic_power_scale,
    voltage_at,
)
from repro.platform.machine import Machine
from repro.platform.performance_model import (
    PerformanceModel,
    contention_penalty,
    memory_speedup,
)
from repro.platform.power_model import PowerConstants, PowerModel
from repro.platform.thermal import ThermalModel
from repro.platform.topology import PAPER_TOPOLOGY, CorePartition, Topology
from repro.workloads.profile import ApplicationProfile


@dataclasses.dataclass(frozen=True)
class CoreCluster:
    """A named group of identical cores inside a heterogeneous package.

    Attributes:
        name: Cluster identifier (e.g. ``"big"``, ``"little"``).
        cores: Physical cores in the cluster.
        min_ghz / max_ghz / dvfs_steps: The cluster's own DVFS ladder,
            evenly spaced like the paper's 1.2–2.9 GHz Xeon ladder.
        turbo: Whether the ladder gains an opportunistic turbo entry
            (only meaningful for Xeon-class big clusters; the turbo bins
            follow the global model in :mod:`repro.platform.dvfs`).
        perf_scale: Per-core throughput at equal frequency relative to
            the paper's nominal Xeon core (LITTLE cores < 1).
        power_scale: Per-core power relative to the nominal Xeon core at
            the same voltage/frequency point (LITTLE cores « 1).
        threads_per_core: SMT width.  Asymmetric mobile-style clusters
            are SMT-off (1); the degenerate Xeon cluster keeps 2.
        tdp_watts: Thermal design power of the cluster's package domain.
    """

    name: str
    cores: int
    min_ghz: float = DVFS_FREQUENCIES_GHZ[0]
    max_ghz: float = NOMINAL_GHZ
    dvfs_steps: int = 8
    turbo: bool = False
    perf_scale: float = 1.0
    power_scale: float = 1.0
    threads_per_core: int = 1
    tdp_watts: float = 135.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"cluster name must be a non-empty string, "
                             f"got {self.name!r}")
        if self.cores < 1:
            raise ValueError(f"cluster {self.name!r}: cores must be >= 1, "
                             f"got {self.cores}")
        if not 0 < self.min_ghz <= self.max_ghz:
            raise ValueError(
                f"cluster {self.name!r}: need 0 < min_ghz <= max_ghz, got "
                f"[{self.min_ghz}, {self.max_ghz}]")
        if self.dvfs_steps < 1:
            raise ValueError(f"cluster {self.name!r}: dvfs_steps must be "
                             f">= 1, got {self.dvfs_steps}")
        if self.perf_scale <= 0 or self.power_scale <= 0:
            raise ValueError(
                f"cluster {self.name!r}: perf_scale and power_scale must "
                f"be positive, got {self.perf_scale}/{self.power_scale}")
        if self.threads_per_core < 1:
            raise ValueError(f"cluster {self.name!r}: threads_per_core "
                             f"must be >= 1, got {self.threads_per_core}")
        if self.tdp_watts <= 0:
            raise ValueError(f"cluster {self.name!r}: tdp_watts must be "
                             f"positive, got {self.tdp_watts}")

    @property
    def threads(self) -> int:
        """Hardware thread contexts in the cluster."""
        return self.cores * self.threads_per_core

    def speed_ladder(self) -> List[SpeedSetting]:
        """The cluster's DVFS ladder, slowest first (plus turbo if any)."""
        if self.dvfs_steps == 1:
            freqs: Sequence[float] = (round(self.max_ghz, 5),)
        else:
            freqs = tuple(round(f, 5) for f in
                          np.linspace(self.min_ghz, self.max_ghz,
                                      self.dvfs_steps))
        ladder = [SpeedSetting(index=i, base_ghz=f, turbo=False)
                  for i, f in enumerate(freqs)]
        if self.turbo:
            ladder.append(SpeedSetting(index=len(freqs),
                                       base_ghz=freqs[-1], turbo=True))
        return ladder


@dataclasses.dataclass(frozen=True)
class OffloadDevice:
    """A GPU-like fixed-function accelerator attached to the node.

    When a configuration offloads, the compute portion of each heartbeat
    runs on the device at ``speedup``× a single nominal big core, paying
    ``transfer_seconds`` of host↔device transfer per heartbeat.  The
    device draws ``active_watts`` while offloading and ``idle_watts``
    otherwise (it is attached, so it always draws at least idle power on
    heterogeneous nodes that declare it).
    """

    name: str = "gpu"
    speedup: float = 8.0
    transfer_seconds: float = 0.004
    active_watts: float = 60.0
    idle_watts: float = 8.0

    def __post_init__(self) -> None:
        if self.speedup <= 0:
            raise ValueError(f"speedup must be positive, got {self.speedup}")
        if self.transfer_seconds < 0:
            raise ValueError(f"transfer_seconds must be non-negative, "
                             f"got {self.transfer_seconds}")
        if self.active_watts < 0 or self.idle_watts < 0:
            raise ValueError("device power draws must be non-negative")
        if self.idle_watts > self.active_watts:
            raise ValueError(
                f"idle_watts {self.idle_watts} exceeds active_watts "
                f"{self.active_watts}")


class HeteroTopology:
    """An ordered collection of asymmetric core clusters.

    Built either from explicit clusters (genuinely heterogeneous) or via
    :meth:`from_topology` (homogeneous-degenerate: one cluster mirroring
    a plain :class:`Topology`, with the original kept so every model can
    delegate to the exact homogeneous code path).
    """

    def __init__(self, clusters: Sequence[CoreCluster],
                 memory_controllers: int = 2,
                 offload: Optional[OffloadDevice] = None,
                 base: Optional[Topology] = None) -> None:
        if not clusters:
            raise ValueError("a HeteroTopology needs at least one cluster")
        names = [c.name for c in clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names in {names}")
        if memory_controllers < 1:
            raise ValueError(f"memory_controllers must be >= 1, "
                             f"got {memory_controllers}")
        self.clusters: Tuple[CoreCluster, ...] = tuple(clusters)
        self.memory_controllers = memory_controllers
        self.offload = offload
        self._base = base

    @classmethod
    def from_topology(cls, topology: Topology = PAPER_TOPOLOGY
                      ) -> "HeteroTopology":
        """The homogeneous-degenerate hetero view of a plain topology."""
        cluster = CoreCluster(
            name="xeon",
            cores=topology.total_cores,
            min_ghz=DVFS_FREQUENCIES_GHZ[0],
            max_ghz=NOMINAL_GHZ,
            dvfs_steps=len(DVFS_FREQUENCIES_GHZ),
            turbo=True,
            perf_scale=1.0,
            power_scale=1.0,
            threads_per_core=topology.threads_per_core,
            tdp_watts=topology.tdp_watts * topology.sockets,
        )
        return cls((cluster,), topology.memory_controllers, offload=None,
                   base=topology)

    @property
    def is_homogeneous(self) -> bool:
        """True when this topology degenerates to a plain ``Topology``."""
        return self._base is not None

    @property
    def base_topology(self) -> Topology:
        """The plain topology a homogeneous-degenerate instance mirrors."""
        if self._base is None:
            raise ValueError(
                "a genuinely heterogeneous topology has no base Topology")
        return self._base

    @property
    def total_cores(self) -> int:
        return sum(c.cores for c in self.clusters)

    @property
    def total_threads(self) -> int:
        return sum(c.threads for c in self.clusters)

    @property
    def total_tdp_watts(self) -> float:
        return sum(c.tdp_watts for c in self.clusters)

    def cluster_index(self, name: str) -> int:
        for i, cluster in enumerate(self.clusters):
            if cluster.name == name:
                return i
        raise KeyError(f"no cluster named {name!r}")

    def split_by_cluster(self) -> List[CorePartition]:
        """One :class:`CorePartition` per cluster, packed in order.

        This is the hetero analogue of :meth:`Topology.split` and feeds
        the cluster subsystem's per-tenant partitioning.
        """
        partitions: List[CorePartition] = []
        next_core = 0
        for cluster in self.clusters:
            partitions.append(CorePartition(
                name=cluster.name, cores=cluster.cores,
                threads=cluster.threads, first_core=next_core))
            next_core += cluster.cores
        return partitions

    def signature(self) -> np.ndarray:
        """Numeric platform descriptor for the transfer-prior kernel.

        ``[total_cores, total_threads, memory_controllers, min_ghz,
        max_ghz, core-weighted perf_scale, core-weighted power_scale,
        total tdp, offload speedup (0 when absent)]`` — comparable
        across homogeneous and heterogeneous platforms.
        """
        cores = self.total_cores
        perf = sum(c.perf_scale * c.cores for c in self.clusters) / cores
        power = sum(c.power_scale * c.cores for c in self.clusters) / cores
        return np.array([
            float(cores),
            float(self.total_threads),
            float(self.memory_controllers),
            min(c.min_ghz for c in self.clusters),
            max(c.max_ghz for c in self.clusters),
            perf,
            power,
            self.total_tdp_watts,
            self.offload.speedup if self.offload is not None else 0.0,
        ])

    def __repr__(self) -> str:
        names = "+".join(f"{c.cores}{c.name}" for c in self.clusters)
        dev = f"+{self.offload.name}" if self.offload else ""
        return f"HeteroTopology({names}{dev}, mem={self.memory_controllers})"


@dataclasses.dataclass(frozen=True)
class HeteroConfiguration(Configuration):
    """A resource assignment with per-cluster core counts and speeds.

    The base fields hold the aggregates (``cores``/``threads`` summed
    over clusters, ``speed`` of the first active cluster) so every
    aggregate-only consumer — the LP layer, partitioning, telemetry —
    keeps working unchanged.  SMT contexts are not a hetero knob:
    ``threads == cores`` always (asymmetric mobile-style clusters run
    SMT-off).

    Attributes:
        cluster_cores: Cores allocated on each cluster, topology order.
        cluster_speeds: Speed setting of each cluster (entries for empty
            clusters are pinned to the cluster's slowest step so equal
            allocations have equal identity).
        offload: Whether the compute portion runs on the offload device.
    """

    cluster_cores: Tuple[int, ...] = ()
    cluster_speeds: Tuple[SpeedSetting, ...] = ()
    offload: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.cluster_cores:
            raise ValueError("a HeteroConfiguration needs cluster_cores")
        if len(self.cluster_cores) != len(self.cluster_speeds):
            raise ValueError(
                f"cluster_cores ({len(self.cluster_cores)}) and "
                f"cluster_speeds ({len(self.cluster_speeds)}) disagree")
        if any(c < 0 for c in self.cluster_cores):
            raise ValueError(f"cluster core counts must be non-negative, "
                             f"got {self.cluster_cores}")
        if sum(self.cluster_cores) != self.cores:
            raise ValueError(
                f"cluster cores {self.cluster_cores} sum to "
                f"{sum(self.cluster_cores)} but cores={self.cores}")
        if self.threads != self.cores:
            raise ValueError(
                "hetero configurations run SMT-off: threads "
                f"({self.threads}) must equal cores ({self.cores})")

    def active_clusters(self) -> Tuple[Tuple[int, int], ...]:
        """``(cluster_index, cores)`` pairs with at least one core."""
        return tuple((k, c) for k, c in enumerate(self.cluster_cores)
                     if c > 0)

    def lookup_key(self):
        return (super().lookup_key(), self.cluster_cores,
                tuple(s.index for s in self.cluster_speeds), self.offload)

    def feature_vector(self) -> np.ndarray:
        """Aggregate knobs followed by per-cluster knobs and the offload
        flag — the predictor vector for feature-based estimators and the
        alignment space for cross-platform transfer."""
        values = [float(self.cores), float(self.threads),
                  float(self.memory_controllers), float(self.speed.index)]
        values.extend(float(c) for c in self.cluster_cores)
        values.extend(float(s.index) for s in self.cluster_speeds)
        values.append(1.0 if self.offload else 0.0)
        return np.array(values, dtype=float)


def hetero_space(topology: HeteroTopology,
                 speed_indices: Optional[Sequence[Optional[Sequence[int]]]]
                 = None,
                 include_offload: bool = True) -> ConfigurationSpace:
    """Enumerate the configuration space of a heterogeneous topology.

    A homogeneous-degenerate topology returns exactly
    ``ConfigurationSpace.paper_space(topology.base_topology)`` — the
    degeneracy guarantee, bit for bit.

    Otherwise configurations carry one core count per cluster (0..cores,
    excluding the all-idle assignment) and one DVFS state per *active*
    cluster (empty clusters are pinned to their slowest step).  Ordering
    follows the paper's convention — memory controllers vary fastest,
    then speeds (later clusters fastest), then the offload flag, then
    per-cluster core counts.

    ``speed_indices`` optionally decimates each cluster's ladder (one
    sequence of ladder indices per cluster, ``None`` keeping the full
    ladder) so experiments can trade space size for estimation cost.
    """
    if topology.is_homogeneous:
        return ConfigurationSpace.paper_space(topology.base_topology)
    ladders: List[List[SpeedSetting]] = []
    for k, cluster in enumerate(topology.clusters):
        ladder = cluster.speed_ladder()
        if speed_indices is not None and speed_indices[k] is not None:
            ladder = [ladder[i] for i in speed_indices[k]]
            if not ladder:
                raise ValueError(f"cluster {cluster.name!r}: empty ladder")
        ladders.append(ladder)
    offload_choices = ((False, True)
                       if include_offload and topology.offload is not None
                       else (False,))
    configs: List[Configuration] = []
    core_ranges = [range(0, c.cores + 1) for c in topology.clusters]
    for cores_tuple in itertools.product(*core_ranges):
        total = sum(cores_tuple)
        if total == 0:
            continue
        speed_choices = [ladders[k] if c > 0 else ladders[k][:1]
                         for k, c in enumerate(cores_tuple)]
        for off in offload_choices:
            for speeds in itertools.product(*speed_choices):
                first_active = next(k for k, c in enumerate(cores_tuple)
                                    if c > 0)
                for mem in range(1, topology.memory_controllers + 1):
                    configs.append(HeteroConfiguration(
                        cores=total, threads=total,
                        memory_controllers=mem,
                        speed=speeds[first_active],
                        cluster_cores=cores_tuple,
                        cluster_speeds=speeds,
                        offload=off,
                    ))
    return ConfigurationSpace(configs, topology)


def cluster_indices(space: ConfigurationSpace, topology: HeteroTopology,
                    name: str) -> List[int]:
    """Flat indices of the configurations active *only* on cluster ``name``.

    These are the non-contiguous base-index subsets hetero partitions
    feed to ``cluster.partition.partition_space``.
    """
    target = topology.cluster_index(name)
    indices = []
    for i, config in enumerate(space):
        if not isinstance(config, HeteroConfiguration):
            continue
        active = config.active_clusters()
        if len(active) == 1 and active[0][0] == target and not config.offload:
            indices.append(i)
    return indices


def _require_hetero(topology: HeteroTopology,
                    config: Configuration) -> HeteroConfiguration:
    if not isinstance(config, HeteroConfiguration):
        raise TypeError(
            f"a heterogeneous topology {topology!r} only runs "
            f"HeteroConfigurations; got a plain {type(config).__name__} "
            f"(build one with hetero_space())")
    if len(config.cluster_cores) != len(topology.clusters):
        raise ValueError(
            f"configuration spans {len(config.cluster_cores)} clusters "
            f"but the topology has {len(topology.clusters)}")
    for (k, c) in config.active_clusters():
        if c > topology.clusters[k].cores:
            raise ValueError(
                f"configuration uses {c} cores on cluster "
                f"{topology.clusters[k].name!r} which has "
                f"{topology.clusters[k].cores}")
    if config.offload and topology.offload is None:
        raise ValueError("configuration offloads but the topology has "
                         "no offload device")
    return config


class HeteroPerformanceModel(PerformanceModel):
    """Ground-truth heartbeat rate composed from per-cluster contributions.

    The serial fraction runs on the fastest allocated core; the parallel
    fraction sees the allocation's effective core count expressed in
    fastest-core units (heterogeneous Amdahl).  On the homogeneous
    degenerate topology, plain configurations delegate to the original
    :class:`PerformanceModel` — the bit-identical path.
    """

    def __init__(self, topology: HeteroTopology) -> None:
        self.topology = topology
        self.hetero = topology
        self._base = (PerformanceModel(topology.base_topology)
                      if topology.is_homogeneous else None)

    def _compute_terms(self, config: HeteroConfiguration
                       ) -> Tuple[List[float], List[float], int]:
        """Per-active-cluster relative speeds and effective core counts.

        Speeds are ``perf_scale * delivered_ghz / NOMINAL_GHZ`` — the
        per-core throughput relative to a nominal paper core.  Returns
        ``(speeds, effective_cores, primary)`` with ``primary`` the
        position of the fastest per-core cluster in the active list.
        """
        speeds: List[float] = []
        effs: List[float] = []
        for k, c in config.active_clusters():
            cluster = self.hetero.clusters[k]
            ghz = config.cluster_speeds[k].effective_ghz(c, cluster.cores)
            speeds.append(cluster.perf_scale * (ghz / NOMINAL_GHZ))
            effs.append(max(float(c), 0.1))
        primary = max(range(len(speeds)), key=speeds.__getitem__)
        return speeds, effs, primary

    def heartbeat_rate(self, profile: ApplicationProfile,
                       config: Configuration) -> float:
        if not isinstance(config, HeteroConfiguration):
            if self._base is not None:
                return self._base.heartbeat_rate(profile, config)
            _require_hetero(self.hetero, config)
        config = _require_hetero(self.hetero, config)

        base_period = 1.0 / profile.base_rate
        t_cpu0 = base_period * profile.compute_intensity
        t_mem0 = base_period * profile.memory_intensity
        t_io0 = base_period * profile.io_intensity

        speeds, effs, primary = self._compute_terms(config)
        s1 = speeds[primary]
        # Effective cores in fastest-core units.  For a single active
        # cluster speeds[i]/s1 is exactly 1.0, so this reduces bit-for-bit
        # to the homogeneous Amdahl term.
        e_rel = 0.0
        for i in range(len(speeds)):
            e_rel += effs[i] * (speeds[i] / s1)
        s = profile.serial_fraction
        speedup = 1.0 / (s + (1.0 - s) / e_rel)
        t_cpu = t_cpu0 / (speedup * s1)

        device = self.hetero.offload
        if config.offload and device is not None:
            t_cpu = t_cpu0 / device.speedup + device.transfer_seconds

        t_mem = t_mem0 / memory_speedup(profile, config)
        period = t_cpu + t_mem + t_io0
        return contention_penalty(profile, config) / period


class HeteroPowerModel(PowerModel):
    """Ground-truth power composed from per-cluster package domains.

    Each cluster is one package domain: uncore charged when the cluster
    is active, leakage and dynamic power per allocated core at the
    cluster's own voltage/frequency point, all scaled by the cluster's
    ``power_scale``.  The offload device adds active/idle watts at the
    system level.  Plain configurations on the homogeneous degenerate
    topology delegate to the original :class:`PowerModel`.
    """

    def __init__(self, topology: HeteroTopology,
                 constants: PowerConstants = PowerConstants()) -> None:
        self.topology = topology
        self.hetero = topology
        self.constants = constants
        self._base = (PowerModel(topology.base_topology, constants)
                      if topology.is_homogeneous else None)

    def chip_power(self, profile: ApplicationProfile,
                   config: Configuration) -> float:
        if not isinstance(config, HeteroConfiguration):
            if self._base is not None:
                return self._base.chip_power(profile, config)
            _require_hetero(self.hetero, config)
        config = _require_hetero(self.hetero, config)
        k = self.constants
        util = self._core_utilization(profile, config)
        total = 0.0
        for idx, c in config.active_clusters():
            cluster = self.hetero.clusters[idx]
            ghz = config.cluster_speeds[idx].effective_ghz(c, cluster.cores)
            volt_ratio = voltage_at(ghz) / voltage_at(NOMINAL_GHZ)
            leakage = c * k.core_leakage_nominal * volt_ratio
            dynamic_per_core = (k.core_dynamic_max * dynamic_power_scale(ghz)
                                * profile.activity_factor * util)
            dynamic = c * dynamic_per_core
            uncore = k.uncore_per_socket
            total += (uncore + leakage + dynamic) * cluster.power_scale
        return total

    def dram_power(self, profile: ApplicationProfile,
                   config: Configuration) -> float:
        if not isinstance(config, HeteroConfiguration) \
                and self._base is not None:
            return self._base.dram_power(profile, config)
        return super().dram_power(profile, config)

    def _device_power(self, config: Configuration) -> float:
        device = self.hetero.offload
        if device is None:
            return 0.0
        offloading = (isinstance(config, HeteroConfiguration)
                      and config.offload)
        return device.active_watts if offloading else device.idle_watts

    def system_power_from_chip(self, profile: ApplicationProfile,
                               config: Configuration, chip: float) -> float:
        if not isinstance(config, HeteroConfiguration) \
                and self._base is not None:
            return self._base.system_power_from_chip(profile, config, chip)
        return (self.constants.system_floor
                + chip
                + self.dram_power(profile, config)
                + self._device_power(config))

    def idle_power(self) -> float:
        if self._base is not None:
            return self._base.idle_power()
        uncore = 0.0
        for cluster in self.hetero.clusters:
            uncore += cluster.power_scale * self.constants.uncore_per_socket
        idle = self.constants.system_floor + 0.25 * uncore
        if self.hetero.offload is not None:
            idle += self.hetero.offload.idle_watts
        return idle


class HeteroMachine(Machine):
    """A :class:`Machine` whose topology is heterogeneous.

    Execution, measurement noise, thermal coupling, fault hooks, and
    sweeps are all inherited unchanged — only the ground-truth models
    are swapped for the per-cluster composing ones, so a homogeneous
    degenerate ``HeteroMachine`` with the same seed produces bit-equal
    measurements to a plain ``Machine``.
    """

    def __init__(self, topology: HeteroTopology,
                 seed: Optional[int] = None,
                 thermal: Optional[ThermalModel] = None) -> None:
        super().__init__(PAPER_TOPOLOGY, seed=seed, thermal=thermal)
        self.topology = topology
        self.performance_model = HeteroPerformanceModel(topology)
        self.power_model = HeteroPowerModel(topology)

    @property
    def hetero(self) -> HeteroTopology:
        return self.topology


#: A default big.LITTLE-style node with a modest offload device: four
#: Xeon-class big cores, four efficiency cores at less than half the
#: per-core throughput and a seventh of the power, one GPU-like device.
BIG_LITTLE = HeteroTopology(
    clusters=(
        CoreCluster(name="big", cores=4, min_ghz=1.2, max_ghz=2.9,
                    dvfs_steps=7, turbo=True, perf_scale=1.0,
                    power_scale=1.0, tdp_watts=70.0),
        CoreCluster(name="little", cores=4, min_ghz=0.6, max_ghz=1.6,
                    dvfs_steps=4, turbo=False, perf_scale=0.42,
                    power_scale=0.15, tdp_watts=8.0),
    ),
    memory_controllers=2,
    offload=OffloadDevice(name="gpu", speedup=8.0, transfer_seconds=0.004,
                          active_watts=55.0, idle_watts=6.0),
)
