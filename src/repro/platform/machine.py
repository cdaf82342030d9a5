"""The simulated machine: actuation, execution, and measurement.

:class:`Machine` stands in for the paper's dual-socket Xeon testbed.  The
runtime actuates it the way the paper's runtime drives Linux (affinity
masks, cpufrequtils, numactl) — here reduced to :meth:`Machine.apply` — and
reads it through the same two channels the paper uses: heartbeat rates
(Application Heartbeats) and power draws (WattsUp / RAPL).

The machine keeps a simulated clock.  :meth:`run_for` advances it, accruing
heartbeats and energy for whatever application is loaded at whatever
configuration is applied, with seeded measurement noise so experiments are
reproducible yet realistically jittery.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.errors import CheckpointError, SensorReadError
from repro.faults.context import get_injector
from repro.platform.config_space import Configuration, ConfigurationSpace
from repro.platform.performance_model import PerformanceModel
from repro.platform.power_model import PowerModel
from repro.platform.thermal import ThermalModel
from repro.platform.topology import PAPER_TOPOLOGY, Topology
from repro.workloads.profile import ApplicationProfile


@dataclasses.dataclass(frozen=True)
class Measurement:
    """One observation window of the running application.

    Attributes:
        duration: Window length in simulated seconds.
        heartbeats: Heartbeats completed during the window.
        rate: Observed heartbeat rate (heartbeats / duration).
        system_power: Mean wall power over the window (WattsUp channel).
        chip_power: Mean package power over the window (RAPL channel).
        energy: System energy consumed over the window, in Joules.
    """

    duration: float
    heartbeats: float
    rate: float
    system_power: float
    chip_power: float

    @property
    def energy(self) -> float:
        return self.system_power * self.duration


class Machine:
    """A configurable machine executing one application at a time."""

    def __init__(self, topology: Topology = PAPER_TOPOLOGY,
                 seed: Optional[int] = None,
                 thermal: Optional[ThermalModel] = None) -> None:
        self.topology = topology
        self.performance_model = PerformanceModel(topology)
        self.power_model = PowerModel(topology)
        #: Optional package thermal model; None keeps the stationary
        #: per-configuration behaviour the paper's model assumes.
        self.thermal = thermal
        self._rng = np.random.default_rng(seed)
        self._profile: Optional[ApplicationProfile] = None
        self._config: Optional[Configuration] = None
        self.clock = 0.0
        self.total_energy = 0.0
        self.total_heartbeats = 0.0

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def load(self, profile: ApplicationProfile) -> None:
        """Start running ``profile`` (replacing any previous application)."""
        self._profile = profile
        self.total_heartbeats = 0.0

    def apply(self, config: Configuration) -> None:
        """Switch the machine to ``config`` (affinity + DVFS + numactl)."""
        if config.cores > self.topology.total_cores:
            raise ValueError(
                f"configuration needs {config.cores} cores; machine has "
                f"{self.topology.total_cores}"
            )
        self._config = config

    @property
    def profile(self) -> Optional[ApplicationProfile]:
        return self._profile

    @property
    def config(self) -> Optional[Configuration]:
        return self._config

    def _require_running(self) -> Tuple[ApplicationProfile, Configuration]:
        if self._profile is None:
            raise RuntimeError("no application loaded; call load() first")
        if self._config is None:
            raise RuntimeError("no configuration applied; call apply() first")
        return self._profile, self._config

    # ------------------------------------------------------------------
    # Ground truth (used by the exhaustive-search baseline and by tests)
    # ------------------------------------------------------------------
    def true_rate(self, profile: ApplicationProfile,
                  config: Configuration) -> float:
        """Noise-free heartbeat rate of ``profile`` at ``config``."""
        return self.performance_model.heartbeat_rate(profile, config)

    def true_power(self, profile: ApplicationProfile,
                   config: Configuration) -> float:
        """Noise-free system power of ``profile`` at ``config``."""
        return self.power_model.system_power(profile, config)

    def idle_power(self) -> float:
        """System power when idling (race-to-idle's post-completion draw)."""
        return self.power_model.idle_power()

    # ------------------------------------------------------------------
    # Execution and measurement
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> Measurement:
        """Advance the simulated clock by ``duration`` seconds.

        Returns the noisy measurement of the window and accrues energy
        and heartbeats.  Noise is multiplicative Gaussian with the
        application's per-profile relative standard deviation, averaged
        over the window (longer windows are less noisy, like a real
        meter integrating more samples).
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        profile, config = self._require_running()
        rate = self.true_rate(profile, config)
        chip_power = self.power_model.chip_power(profile, config)
        system_power = self.power_model.system_power_from_chip(
            profile, config, chip_power)

        if self.thermal is not None:
            # Throttling derates delivered frequency and chip power for
            # the window; the board floor and DRAM are unaffected.
            factor = self.thermal.advance(chip_power, duration)
            rate *= factor
            system_power -= chip_power * (1.0 - factor)
            chip_power *= factor

        # Averaging ~duration independent 1 s samples shrinks the noise.
        shrink = 1.0 / np.sqrt(max(duration, 1.0))
        noise = profile.noise * shrink
        rate_obs = rate * max(self._rng.normal(1.0, noise), 0.0)
        power_obs = system_power * max(self._rng.normal(1.0, noise), 0.0)
        chip_obs = chip_power * max(self._rng.normal(1.0, noise), 0.0)

        heartbeats = rate_obs * duration
        self.clock += duration
        self.total_energy += power_obs * duration
        self.total_heartbeats += heartbeats

        # Fault-injection hook.  Firing happens *after* the machine's
        # state advanced: the application really ran and really drew
        # power — only the observation of the window is perturbed or
        # lost.  The null injector returns an empty tuple and draws no
        # random numbers, so the fault-free path is bit-identical.
        for spec in get_injector().fire("machine.measure", clock=self.clock):
            if spec.kind == "sensor-dropout":
                raise SensorReadError("injected sensor dropout",
                                      site="machine.measure")
            if spec.kind == "sensor-outlier":
                rate_obs *= spec.magnitude
                power_obs *= spec.magnitude
                chip_obs *= spec.magnitude
            elif spec.kind == "sensor-bias":
                power_obs *= (1.0 + spec.magnitude)
                chip_obs *= (1.0 + spec.magnitude)
        return Measurement(duration=duration, heartbeats=heartbeats,
                           rate=rate_obs, system_power=power_obs,
                           chip_power=chip_obs)

    def idle_for(self, duration: float) -> float:
        """Idle the machine for ``duration`` seconds; returns energy spent."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if self.thermal is not None and duration > 0:
            self.thermal.advance(0.0, duration)
        energy = self.idle_power() * duration
        self.clock += duration
        self.total_energy += energy
        return energy

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------
    def snapshot(self, space: ConfigurationSpace) -> dict:
        """Clock, counters, applied configuration (its index in
        ``space``) and noise stream, as plain JSON.  A thermally-modelled
        machine refuses: its integrator state is not serialized, and a
        silent mismatch would break a resumed run's bit-equality."""
        if self.thermal is not None:
            raise CheckpointError(
                "checkpointing a thermally-modelled machine is not "
                "supported (the thermal integrator state is not "
                "serialized)")
        config = self._config
        index = (space.index_of(config)
                 if config is not None and config in space else None)
        return {"clock": self.clock, "total_energy": self.total_energy,
                "total_heartbeats": self.total_heartbeats,
                "config_index": index,
                "rng_state": self._rng.bit_generator.state}

    def restore(self, snapshot: dict, space: ConfigurationSpace) -> None:
        """Return to a :meth:`snapshot` taken over ``space``."""
        index = snapshot.get("config_index")
        if index is not None and not 0 <= int(index) < len(space):
            raise CheckpointError(
                f"checkpointed configuration {index} is outside this "
                f"{len(space)}-configuration space")
        self.clock = float(snapshot["clock"])
        self.total_energy = float(snapshot["total_energy"])
        self.total_heartbeats = float(snapshot["total_heartbeats"])
        if snapshot.get("rng_state") is not None:
            self._rng.bit_generator.state = snapshot["rng_state"]
        if index is not None:
            self.apply(space[int(index)])

    # ------------------------------------------------------------------
    # Profiling sweeps
    # ------------------------------------------------------------------
    def sweep(self, profile: ApplicationProfile, space: ConfigurationSpace,
              window: float = 1.0, noisy: bool = True
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Measure ``profile`` in every configuration of ``space``.

        Returns ``(rates, powers)`` arrays of length ``len(space)``.  This
        is the offline profiling campaign (and, with ``noisy=False``, the
        exhaustive-search ground truth).
        """
        previous = (self._profile, self._config)
        self.load(profile)
        rates = np.empty(len(space))
        powers = np.empty(len(space))
        for i, config in enumerate(space):
            if noisy:
                self.apply(config)
                m = self.run_for(window)
                rates[i], powers[i] = m.rate, m.system_power
            else:
                rates[i] = self.true_rate(profile, config)
                powers[i] = self.true_power(profile, config)
        self._profile, self._config = previous
        return rates, powers
