"""Hardware topology of the simulated test platform.

The paper's testbed is a dual-socket SuperMICRO X9DRL-iF board with two
Intel Xeon E5-2690 processors (Section 6.1).  Each chip has eight cores,
two-way hyperthreading, its own memory controller, and a 135 W thermal
design power.  This module describes that topology so the rest of the
simulator can reason about which socket a core lives on, how many memory
controllers a configuration touches, and how many hardware thread contexts
a core allocation provides.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple, Union


@dataclasses.dataclass(frozen=True)
class Topology:
    """Static description of the machine's processor topology.

    Attributes:
        sockets: Number of processor packages.
        cores_per_socket: Physical cores on each package.
        threads_per_core: Hardware thread contexts per core (SMT width).
        memory_controllers: Number of independent memory controllers
            (one per socket on the paper's testbed).
        tdp_watts: Thermal design power of a single package.
    """

    sockets: int = 2
    cores_per_socket: int = 8
    threads_per_core: int = 2
    memory_controllers: int = 2
    tdp_watts: float = 135.0

    def __post_init__(self) -> None:
        for name in ("sockets", "cores_per_socket", "threads_per_core",
                     "memory_controllers"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.tdp_watts <= 0:
            raise ValueError(f"tdp_watts must be positive, got {self.tdp_watts!r}")
        if self.memory_controllers > self.sockets:
            raise ValueError(
                "memory_controllers cannot exceed sockets "
                f"({self.memory_controllers} > {self.sockets})"
            )

    @property
    def total_cores(self) -> int:
        """Total physical cores across all sockets."""
        return self.sockets * self.cores_per_socket

    @property
    def total_threads(self) -> int:
        """Total hardware thread contexts across all sockets."""
        return self.total_cores * self.threads_per_core

    def sockets_for_cores(self, cores: int) -> int:
        """Number of sockets that must be powered to host ``cores`` cores.

        Cores are packed onto sockets in order, mirroring how a process
        affinity mask that allocates the first k cores spans packages.
        """
        if cores < 0:
            raise ValueError(f"cores must be non-negative, got {cores}")
        if cores == 0:
            return 0
        if cores > self.total_cores:
            raise ValueError(
                f"cores {cores} exceeds total physical cores {self.total_cores}"
            )
        full, partial = divmod(cores, self.cores_per_socket)
        return full + (1 if partial else 0)

    # ------------------------------------------------------------------
    # Partitioning (the cluster subsystem's substrate)
    # ------------------------------------------------------------------
    def split(self, requests: Sequence[Union["CorePartition",
                                             Tuple[str, int],
                                             Tuple[str, int, int]]]
              ) -> List["CorePartition"]:
        """Divide the machine's cores into disjoint named partitions.

        Each request is a :class:`CorePartition` or a ``(name, cores)``
        / ``(name, cores, threads)`` tuple; ``threads`` defaults to both
        hyperthread contexts of every owned core.  Cores are packed
        contiguously in request order (the affinity-mask convention the
        rest of the platform uses), so the returned partitions carry
        their ``first_core`` offsets.

        Raises ``ValueError`` naming the offending partition for the
        three ways a split can be malformed: a zero-core partition, a
        partition claiming hyperthread contexts beyond its own cores'
        siblings (splitting an HT pair across partitions), and
        over-subscription of the physical cores.
        """
        partitions: List[CorePartition] = []
        next_core = 0
        seen = set()
        for request in requests:
            if isinstance(request, CorePartition):
                name, cores, threads = (request.name, request.cores,
                                        request.threads)
            else:
                name = request[0]
                cores = request[1]
                threads = (request[2] if len(request) > 2
                           else self.threads_per_core * request[1])
            if not name or not isinstance(name, str):
                raise ValueError(
                    f"partition name must be a non-empty string, got {name!r}")
            if name in seen:
                raise ValueError(f"duplicate partition {name!r}")
            seen.add(name)
            if cores < 1:
                raise ValueError(
                    f"partition {name!r} allocates zero cores; every "
                    f"partition needs at least one physical core")
            if threads < cores:
                raise ValueError(
                    f"partition {name!r} allocates {threads} thread "
                    f"contexts for {cores} cores; each core contributes "
                    f"at least its primary context")
            if threads > self.threads_per_core * cores:
                raise ValueError(
                    f"partition {name!r} splits hyperthread siblings: "
                    f"{threads} thread contexts exceed the "
                    f"{self.threads_per_core * cores} contexts of its own "
                    f"{cores} cores (sibling contexts belong to the "
                    f"partition owning the core)")
            if next_core + cores > self.total_cores:
                raise ValueError(
                    f"partitions over-subscribe the machine: partition "
                    f"{name!r} needs cores "
                    f"[{next_core}, {next_core + cores}) but the machine "
                    f"has {self.total_cores} physical cores")
            partitions.append(CorePartition(name=name, cores=cores,
                                            threads=threads,
                                            first_core=next_core))
            next_core += cores
        return partitions


@dataclasses.dataclass(frozen=True)
class CorePartition:
    """A named, contiguous slice of a machine's physical cores.

    Attributes:
        name: Tenant/partition identifier.
        cores: Physical cores owned by the partition.
        threads: Hardware thread contexts owned (between ``cores`` and
            ``threads_per_core * cores``; a partition owns the
            hyperthread siblings of its own cores and nothing else).
        first_core: Offset of the partition's first core in the node's
            flat core numbering (assigned by :meth:`Topology.split`).
    """

    name: str
    cores: int
    threads: int
    first_core: int = 0

    @property
    def last_core(self) -> int:
        """One past the partition's highest core index."""
        return self.first_core + self.cores


#: The topology of the paper's evaluation platform (Section 6.1).
PAPER_TOPOLOGY = Topology()
