"""Analytic power model of the simulated platform.

Maps an application profile and a configuration to ground-truth power
draws: whole-system power (what the paper's WattsUp meter reports at 1 s
intervals) and per-socket chip power (what Intel RAPL reports at finer
grain).  The model is a standard CMOS decomposition:

* a constant system floor (board, fans, disks, PSU losses at idle);
* per-powered-socket uncore power (LLC, ring, IO);
* per-active-core leakage, scaling with supply voltage;
* per-active-core dynamic power, scaling with ``V(f)^2 * f`` (see
  :mod:`repro.platform.dvfs`), the application's switching activity, and
  the core's utilization (cores idling at a barrier draw less);
* hyperthreading adds a fixed fraction of dynamic power per core;
* per-controller DRAM power with a traffic-dependent dynamic part.

Constants are calibrated so that a fully active compute-bound workload at
TurboBoost draws near (but below) the two sockets' 135 W TDP each, and an
idle system draws roughly 85 W at the wall — consistent with the class of
server the paper evaluates on.
"""

from __future__ import annotations

import dataclasses

from repro.platform.config_space import Configuration
from repro.platform.dvfs import NOMINAL_GHZ, dynamic_power_scale, voltage_at
from repro.platform.performance_model import thread_speedup
from repro.platform.topology import PAPER_TOPOLOGY, Topology
from repro.workloads.profile import ApplicationProfile


@dataclasses.dataclass(frozen=True)
class PowerConstants:
    """Calibration constants of the power model (all in Watts)."""

    system_floor: float = 75.0
    uncore_per_socket: float = 15.0
    core_leakage_nominal: float = 2.0
    core_dynamic_max: float = 7.0
    ht_dynamic_fraction: float = 0.14
    dram_static_per_controller: float = 3.0
    dram_dynamic_max: float = 12.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be non-negative")


class PowerModel:
    """Ground-truth system and chip power for a fixed topology."""

    def __init__(self, topology: Topology = PAPER_TOPOLOGY,
                 constants: PowerConstants = PowerConstants()) -> None:
        self.topology = topology
        self.constants = constants

    def _core_utilization(self, profile: ApplicationProfile,
                          config: Configuration) -> float:
        """Average busy fraction of the allocated cores, in (0, 1].

        A perfectly parallel application keeps every core busy; serial
        bottlenecks leave cores waiting, which shows up as reduced
        dynamic power on real hardware.
        """
        speedup = thread_speedup(profile, config)
        # Busy fraction of the physical pipelines: hyperthread contexts
        # raise it (they fill stall cycles), serial bottlenecks lower it.
        util = speedup / config.cores
        # I/O-bound time idles the cores as well.
        util *= 1.0 - 0.5 * profile.io_intensity
        return min(max(util, 0.05), 1.0)

    def chip_power(self, profile: ApplicationProfile,
                   config: Configuration) -> float:
        """Total processor-package power across powered sockets (RAPL)."""
        if config.cores > self.topology.total_cores:
            raise ValueError(
                f"configuration uses {config.cores} cores but the machine "
                f"has {self.topology.total_cores}"
            )
        k = self.constants
        freq = config.effective_ghz(self.topology.total_cores)
        volt_ratio = voltage_at(freq) / voltage_at(NOMINAL_GHZ)
        sockets = self.topology.sockets_for_cores(config.cores)
        util = self._core_utilization(profile, config)

        leakage = config.cores * k.core_leakage_nominal * volt_ratio
        dynamic_per_core = (k.core_dynamic_max * dynamic_power_scale(freq)
                            * profile.activity_factor * util)
        if config.hyperthreading:
            ht_cores = config.threads - config.cores
            dynamic_per_core *= 1.0 + k.ht_dynamic_fraction * ht_cores / config.cores
        dynamic = config.cores * dynamic_per_core
        uncore = sockets * k.uncore_per_socket
        return uncore + leakage + dynamic

    def dram_power(self, profile: ApplicationProfile,
                   config: Configuration) -> float:
        """Memory subsystem power across accessible controllers."""
        k = self.constants
        static = config.memory_controllers * k.dram_static_per_controller
        # Traffic grows with memory intensity and with parallel streams,
        # saturating at the application's memory-level parallelism.
        streams = min(config.threads, profile.memory_parallelism)
        saturation = streams / profile.memory_parallelism
        dynamic = (k.dram_dynamic_max * profile.memory_intensity * saturation
                   * config.memory_controllers / self.topology.memory_controllers)
        return static + dynamic

    def system_power(self, profile: ApplicationProfile,
                     config: Configuration) -> float:
        """Whole-system wall power (what the WattsUp meter measures)."""
        return self.system_power_from_chip(
            profile, config, self.chip_power(profile, config))

    def system_power_from_chip(self, profile: ApplicationProfile,
                               config: Configuration, chip: float) -> float:
        """:meth:`system_power` given ``chip``, this model's
        :meth:`chip_power` at ``config`` — for callers that need both."""
        return (self.constants.system_floor
                + chip
                + self.dram_power(profile, config))

    def idle_power(self) -> float:
        """System power with no application running (all packages idle).

        Idle packages still leak and keep their uncore partially awake;
        we charge the floor plus a quarter of the per-socket uncore.
        """
        return (self.constants.system_floor
                + 0.25 * self.topology.sockets * self.constants.uncore_per_socket)
