"""Configurations and the configuration space of the simulated platform.

A *configuration* is one assignment of system resources to the application:
how many physical cores it may use, how many hardware thread contexts
(hyperthreading on or off), how many memory controllers it may touch, and
which speed setting (DVFS step or TurboBoost) the cores run at.

The paper's platform exposes 1024 such configurations: 16 cores x 2
hyperthread settings x 2 memory controllers x 16 speed settings (Section
6.1, footnote 3).  When the paper plots estimates against a flat
"configuration index" (Figures 7 and 8), the index varies memory
controllers fastest, then clockspeed, then cores, which produces the
saw-tooth curves the paper describes; :class:`ConfigurationSpace` uses the
same ordering so our reproduced curves have the same appearance.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.platform.dvfs import SpeedSetting, speed_ladder
from repro.platform.topology import PAPER_TOPOLOGY, Topology


@dataclasses.dataclass(frozen=True)
class Configuration:
    """One resource assignment.

    Attributes:
        cores: Number of physical cores allocated (1-based count).
        threads: Total hardware thread contexts allocated.  Equal to
            ``cores`` with hyperthreading off; up to ``2 * cores`` with
            hyperthreading on.  The motivational example's "32 cores"
            (Section 2) are 32 logical contexts, i.e. 16 physical cores
            with all hyperthread partners enabled.
        memory_controllers: Number of memory controllers accessible
            (the testbed has one per socket, controlled via numactl).
        speed: The speed setting the allocated cores run at.
    """

    cores: int
    threads: int
    memory_controllers: int
    speed: SpeedSetting

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if not self.cores <= self.threads <= 2 * self.cores:
            raise ValueError(
                f"threads must be in [cores, 2*cores] = "
                f"[{self.cores}, {2 * self.cores}], got {self.threads}"
            )
        if self.memory_controllers < 1:
            raise ValueError(
                f"memory_controllers must be >= 1, got {self.memory_controllers}"
            )

    @property
    def hyperthreading(self) -> bool:
        """Whether any hyperthread partner contexts are allocated."""
        return self.threads > self.cores

    def effective_ghz(self, total_cores: int) -> float:
        """Delivered core frequency given this allocation's active cores."""
        return self.speed.effective_ghz(self.cores, total_cores)

    def feature_vector(self) -> np.ndarray:
        """Numeric knob values ``[cores, threads, memory_controllers, speed]``.

        This is the predictor vector the online polynomial-regression
        baseline uses (Section 6.2: "configuration values (the number of
        cores, memory control and speed-settings) as predictors").
        """
        return np.array(
            [self.cores, self.threads, self.memory_controllers, self.speed.index],
            dtype=float,
        )

    def lookup_key(self):
        """Hashable identity used by :class:`ConfigurationSpace`'s index.

        Subclasses with extra knobs (per-cluster allocations on
        heterogeneous platforms) must extend this key, otherwise
        configurations sharing aggregate knob values would collide in
        the dict-backed lookup.
        """
        return (self.cores, self.threads, self.memory_controllers,
                self.speed.index)


class ConfigurationSpace:
    """An ordered, indexable collection of configurations.

    The order is the paper's flat configuration index: memory controllers
    vary fastest, then speed settings, then hyperthreading, then cores.
    A space is immutable once built.
    """

    def __init__(self, configs: Sequence[Configuration],
                 topology: Topology = PAPER_TOPOLOGY) -> None:
        if not configs:
            raise ValueError("a configuration space must contain configurations")
        self._configs: List[Configuration] = list(configs)
        self.topology = topology
        self._index = {self._key(c): i for i, c in enumerate(self._configs)}
        if len(self._index) != len(self._configs):
            raise ValueError("configuration space contains duplicates")
        self._features: Optional[np.ndarray] = None

    @staticmethod
    def _key(config: Configuration):
        return config.lookup_key()

    def __len__(self) -> int:
        return len(self._configs)

    def __getitem__(self, index: int) -> Configuration:
        return self._configs[index]

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._configs)

    def index_of(self, config: Configuration) -> int:
        """The flat index of ``config``; raises ``KeyError`` if absent."""
        return self._index[self._key(config)]

    def __contains__(self, config: Configuration) -> bool:
        return self._key(config) in self._index

    def feature_matrix(self) -> np.ndarray:
        """Stacked feature vectors, shape ``(len(self), d)``.

        ``d`` is 4 for plain configurations; heterogeneous spaces append
        per-cluster knobs (every member of a space shares one type, so
        rows always stack).  The matrix is built on the first call; every
        call returns that one shared, read-only array.
        """
        if self._features is None:
            features = np.stack([c.feature_vector() for c in self._configs])
            features.flags.writeable = False
            self._features = features
        return self._features

    def subspace(self, indices: Sequence[int]) -> "ConfigurationSpace":
        """A new space holding ``self[i]`` for each ``i`` in ``indices``.

        Accepts any (possibly non-contiguous) index subset, preserving
        order; the configuration objects are shared, not copied.  This
        is the single code path for partition slicing and the
        allocator's budget filtering.
        """
        configs = [self._configs[i] for i in indices]
        return ConfigurationSpace(configs, self.topology)

    @classmethod
    def paper_space(cls, topology: Topology = PAPER_TOPOLOGY) -> "ConfigurationSpace":
        """The full 1024-configuration space of the paper's testbed.

        Ordering (fastest-changing last dimension first): memory
        controllers, then the 16 speed settings, then hyperthreading,
        then core count — matching the description under Figures 7/8.
        """
        ladder = speed_ladder()
        configs = []
        for cores in range(1, topology.total_cores + 1):
            for ht in (False, True):
                threads = cores * 2 if ht else cores
                for speed in ladder:
                    for mem in range(1, topology.memory_controllers + 1):
                        configs.append(Configuration(
                            cores=cores, threads=threads,
                            memory_controllers=mem, speed=speed,
                        ))
        return cls(configs, topology)

    @classmethod
    def cores_only(cls, topology: Topology = PAPER_TOPOLOGY) -> "ConfigurationSpace":
        """The 32-configuration core-allocation space of Section 2.

        Configuration ``c`` allocates ``c + 1`` logical CPUs (1..32) at the
        highest non-turbo speed with all memory controllers, mirroring the
        motivational example where only the affinity mask is varied.
        """
        top_speed = speed_ladder()[-2]  # highest non-turbo DVFS step
        configs = []
        for logical in range(1, topology.total_threads + 1):
            cores = min(logical, topology.total_cores)
            configs.append(Configuration(
                cores=cores, threads=logical,
                memory_controllers=topology.memory_controllers, speed=top_speed,
            ))
        return cls(configs, topology)
