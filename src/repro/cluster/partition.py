"""Per-tenant machine views over one shared, partitioned node.

The cluster subsystem co-schedules N applications on one simulated
machine by giving each tenant a disjoint slice of the physical cores
(:class:`~repro.platform.topology.CorePartition`, produced by
:meth:`Topology.split`) and a private :class:`TenantMachine` — a
``Machine`` subclass that any :class:`~repro.runtime.controller.
RuntimeController` drives unchanged.  Two resources stay shared and
contended:

* **The board floor and package TDP budget.**  A tenant view charges
  only its fair share (``1 / num_partitions``) of the system floor and
  of the idle draw, so the *sum* of the tenant views' wall powers is
  the node's wall power; socket uncore is charged per tenant view,
  which double-counts a socket shared by two partitions — a
  conservative error with respect to the global power cap.
* **The memory controllers.**  Co-runners pressure each other's memory
  streams: a tenant's heartbeat rate is derated by
  ``1 / (1 + kappa * m_i * sum_j m_j)`` where ``m`` are the memory
  intensities of the tenant and its co-residents.
  :class:`PartitionedMachine` refreshes the pressure whenever
  membership or loaded profiles change.

:func:`partition_space` projects a node-wide
:class:`~repro.platform.config_space.ConfigurationSpace` onto a
partition, keeping the original flat indices so offline priors (tables
over the full space) can be sliced consistently.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.platform.config_space import Configuration, ConfigurationSpace
from repro.platform.machine import Machine
from repro.platform.performance_model import PerformanceModel
from repro.platform.power_model import PowerConstants, PowerModel
from repro.platform.thermal import ThermalModel
from repro.platform.topology import CorePartition, Topology
from repro.runtime.sampling import cell_seed
from repro.workloads.profile import ApplicationProfile

#: Default memory-contention coupling between co-resident tenants.
DEFAULT_CONTENTION_KAPPA = 0.15

_PartitionRequest = Union[CorePartition, Tuple[str, int], Tuple[str, int, int]]


class _TenantPowerModel(PowerModel):
    """Power model of one tenant view: shared draws are split fairly.

    Per-core and per-controller draws are attributable to the tenant
    that causes them; the board floor and the idle draw are node-wide
    and are charged at ``floor_share`` each, so tenant wall powers sum
    to the node wall power.
    """

    def __init__(self, topology: Topology, floor_share: float,
                 constants: PowerConstants = PowerConstants()) -> None:
        super().__init__(topology, constants)
        self.floor_share = float(floor_share)

    def system_power(self, profile: ApplicationProfile,
                     config: Configuration) -> float:
        return (self.floor_share * self.constants.system_floor
                + self.chip_power(profile, config)
                + self.dram_power(profile, config))

    def idle_power(self) -> float:
        return self.floor_share * PowerModel.idle_power(self)


class _TenantPerformanceModel(PerformanceModel):
    """Performance model derated by co-runner memory pressure."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        #: ``kappa * sum`` of co-residents' memory intensities; set by
        #: :meth:`PartitionedMachine._refresh_contention`.
        self.contention_pressure = 0.0

    def heartbeat_rate(self, profile: ApplicationProfile,
                       config: Configuration) -> float:
        rate = super().heartbeat_rate(profile, config)
        return rate / (1.0 + self.contention_pressure
                       * profile.memory_intensity)


class TenantMachine(Machine):
    """A ``Machine``-compatible view of one partition of a shared node.

    The runtime controller drives it exactly like a private machine;
    the view enforces the partition boundary at actuation time and
    accounts shared power fairly (see the module docstring).
    """

    def __init__(self, topology: Topology, partition: CorePartition,
                 floor_share: float, seed: Optional[int] = None,
                 thermal: Optional[ThermalModel] = None) -> None:
        super().__init__(topology, seed=seed, thermal=thermal)
        self.partition = partition
        self.performance_model = _TenantPerformanceModel(topology)
        self.power_model = _TenantPowerModel(topology, floor_share)

    @property
    def floor_share(self) -> float:
        """This view's share of the node-wide floor and idle draws."""
        return self.power_model.floor_share

    @floor_share.setter
    def floor_share(self, share: float) -> None:
        self.power_model.floor_share = float(share)

    def set_contention(self, pressure: float) -> None:
        """Install the co-runner memory pressure (set by the node)."""
        self.performance_model.contention_pressure = float(pressure)

    def apply(self, config: Configuration) -> None:
        p = self.partition
        if config.cores > p.cores or config.threads > p.threads:
            raise ValueError(
                f"configuration (cores={config.cores}, "
                f"threads={config.threads}) exceeds partition {p.name!r} "
                f"(cores={p.cores}, threads={p.threads})"
            )
        super().apply(config)


@dataclasses.dataclass(frozen=True)
class TenantSpace:
    """A partition's slice of the node-wide configuration space.

    Attributes:
        space: The configurations that fit inside the partition, in
            node-space order.
        base_indices: For each configuration, its flat index in the
            node-wide space — the key for slicing offline prior tables
            (which are laid out over the full space).
    """

    space: ConfigurationSpace
    base_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.space)

    def slice_table(self, table: np.ndarray) -> np.ndarray:
        """Project a node-wide table onto this tenant's configurations.

        ``table`` is laid out over the full node space along its last
        axis (prior rate/power tables, truth curves).  Works for any
        base-index subset, contiguous or not; raises ``ValueError``
        when the table's last axis does not match the node space the
        indices were cut from.
        """
        table = np.asarray(table)
        if table.ndim < 1:
            raise ValueError("table must have at least one axis")
        limit = int(self.base_indices.max()) if len(self.base_indices) else 0
        if table.shape[-1] <= limit:
            raise ValueError(
                f"table covers {table.shape[-1]} node configurations but "
                f"the tenant references base index {limit}; slice tables "
                f"over the node-wide space, not an already-sliced one")
        return table[..., self.base_indices]


def partition_space(space: ConfigurationSpace,
                    partition: CorePartition,
                    indices: Optional[Sequence[int]] = None) -> TenantSpace:
    """Project a node-wide configuration space onto one partition.

    By default keeps every configuration whose core and thread demands
    fit inside the partition.  ``indices`` overrides the filter with an
    explicit base-index subset — heterogeneous partitions (one per core
    cluster) produce non-contiguous subsets like this, since a
    cluster's configurations interleave with the other clusters' in the
    node-wide ordering.  Explicit subsets are validated: in range,
    strictly increasing (so prior-table slices stay aligned with the
    node-space order), and still within the partition's core/thread
    budget.

    Raises ``ValueError`` naming the partition when nothing fits.
    """
    if indices is None:
        kept = [i for i, config in enumerate(space)
                if config.cores <= partition.cores
                and config.threads <= partition.threads]
    else:
        kept = [int(i) for i in indices]
        for pos, i in enumerate(kept):
            if not 0 <= i < len(space):
                raise ValueError(
                    f"partition {partition.name!r}: base index {i} out of "
                    f"range [0, {len(space)})")
            if pos > 0 and i <= kept[pos - 1]:
                raise ValueError(
                    f"partition {partition.name!r}: base indices must be "
                    f"strictly increasing to preserve node-space order, "
                    f"got {kept[pos - 1]} before {i}")
            config = space[i]
            if config.cores > partition.cores \
                    or config.threads > partition.threads:
                raise ValueError(
                    f"partition {partition.name!r}: configuration at base "
                    f"index {i} (cores={config.cores}, "
                    f"threads={config.threads}) exceeds the partition "
                    f"(cores={partition.cores}, "
                    f"threads={partition.threads})")
    if not kept:
        raise ValueError(
            f"no configuration fits partition {partition.name!r} "
            f"(cores={partition.cores}, threads={partition.threads})"
        )
    sub = space.subspace(kept)
    return TenantSpace(space=sub, base_indices=np.asarray(kept, dtype=int))


class PartitionedMachine:
    """One shared node split into per-tenant ``Machine`` views.

    Args:
        space: The node-wide configuration space tenants choose from.
        requests: Initial partition requests, as accepted by
            :meth:`Topology.split`.
        topology: The node's topology; defaults to the space's.
        seed: Base seed; each tenant view's measurement noise stream is
            derived stably from it and the tenant's name.
        contention_kappa: Coupling constant of the shared-memory
            contention derate.

    Views are created, resized, and retired through
    :meth:`repartition`; a retired view's energy is folded into
    :attr:`node_energy` so node accounting survives churn.
    """

    def __init__(self, space: ConfigurationSpace,
                 requests: Sequence[_PartitionRequest],
                 topology: Optional[Topology] = None,
                 seed: int = 0,
                 contention_kappa: float = DEFAULT_CONTENTION_KAPPA) -> None:
        if contention_kappa < 0:
            raise ValueError(
                f"contention_kappa must be >= 0, got {contention_kappa}")
        self.space = space
        self.topology = topology if topology is not None else space.topology
        self.seed = int(seed)
        self.contention_kappa = float(contention_kappa)
        self.partitions: List[CorePartition] = []
        self._views: Dict[str, TenantMachine] = {}
        self._spaces: Dict[str, TenantSpace] = {}
        self._profiles: Dict[str, ApplicationProfile] = {}
        self._retired_energy = 0.0
        self.repartition(requests)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def repartition(self, requests: Sequence[_PartitionRequest],
                    clock: Optional[float] = None) -> List[CorePartition]:
        """Re-split the node; create, resize, and retire views to match.

        Surviving tenants keep their machine (clock, energy, and noise
        stream continue); new tenants get a fresh view whose clock
        starts at ``clock`` (default: the node clock, so arrivals join
        the present, not the past).  Departed tenants' energy is folded
        into :attr:`node_energy`.
        """
        partitions = self.topology.split(requests)
        names = {p.name for p in partitions}
        for name in list(self._views):
            if name not in names:
                machine = self._views.pop(name)
                self._retired_energy += machine.total_energy
                self._spaces.pop(name, None)
                self._profiles.pop(name, None)
        start_clock = clock if clock is not None else self.node_clock
        share = 1.0 / len(partitions) if partitions else 0.0
        views: Dict[str, TenantMachine] = {}
        for p in partitions:
            machine = self._views.get(p.name)
            if machine is None:
                machine = TenantMachine(
                    self.topology, p, floor_share=share,
                    seed=cell_seed(self.seed, "tenant-machine", p.name))
                machine.clock = start_clock
            else:
                machine.partition = p
                machine.floor_share = share
            views[p.name] = machine
            self._spaces[p.name] = partition_space(self.space, p)
        self._views = views
        self.partitions = partitions
        self._refresh_contention()
        return partitions

    @property
    def names(self) -> List[str]:
        """Live tenant names, in partition (admission) order."""
        return [p.name for p in self.partitions]

    def view(self, name: str) -> TenantMachine:
        """The named tenant's machine view."""
        return self._views[name]

    def space_for(self, name: str) -> TenantSpace:
        """The named tenant's slice of the configuration space."""
        return self._spaces[name]

    def set_profile(self, name: str,
                    profile: Optional[ApplicationProfile]) -> None:
        """Declare what ``name`` is running, for contention accounting."""
        if name not in self._views:
            raise KeyError(f"unknown tenant {name!r}")
        if profile is None:
            self._profiles.pop(name, None)
        else:
            self._profiles[name] = profile
        self._refresh_contention()

    def _refresh_contention(self) -> None:
        for name, machine in self._views.items():
            pressure = sum(p.memory_intensity
                           for other, p in self._profiles.items()
                           if other != name)
            machine.set_contention(self.contention_kappa * pressure)

    # ------------------------------------------------------------------
    # Node-level accounting
    # ------------------------------------------------------------------
    @property
    def node_clock(self) -> float:
        """The furthest tenant clock (the node's present moment)."""
        if not self._views:
            return 0.0
        return max(m.clock for m in self._views.values())

    @property
    def node_energy(self) -> float:
        """Total energy of the node: live views plus retired tenants."""
        return self._retired_energy + sum(m.total_energy
                                          for m in self._views.values())

    def idle_power(self) -> float:
        """Node-wide idle draw (the sum of the views' fair shares)."""
        return sum(m.idle_power() for m in self._views.values())

    def sync_clocks(self) -> None:
        """Idle lagging views up to the node clock.

        Tenant epochs run sequentially in simulation but represent
        concurrent wall-clock windows; whenever one view's clock runs
        ahead (e.g. a staggered calibration), the others idle — and are
        charged for it — until the node is synchronous again.
        """
        target = self.node_clock
        for machine in self._views.values():
            lag = target - machine.clock
            if lag > 1e-12:
                machine.idle_for(lag)
