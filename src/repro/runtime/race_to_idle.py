"""The race-to-idle heuristic (Sections 2 and 6.2).

"This approach allocates all resources to the application and once it is
finished the system goes to idle.  This strategy incurs almost no runtime
overhead, but may be suboptimal in terms of energy, since maximum
resource allocation is not always the best solution."

Unlike the estimating approaches, race-to-idle needs no model at all: it
simply applies the all-resources configuration (every core, both
hyperthreads, both memory controllers, TurboBoost) and runs until the
work completes, then idles out the window.
"""

from __future__ import annotations

import numpy as np

from repro.platform.config_space import Configuration, ConfigurationSpace
from repro.platform.machine import Machine
from repro.runtime.controller import RunReport, RunWindow
from repro.workloads.profile import ApplicationProfile


def all_resources_config(space: ConfigurationSpace) -> Configuration:
    """The configuration allocating the most of every knob in ``space``.

    Resolution order mirrors the heuristic's intent: most threads, most
    cores, most memory controllers, highest speed setting.
    """
    return max(
        space,
        key=lambda c: (c.threads, c.cores, c.memory_controllers, c.speed.index),
    )


class RaceToIdleController:
    """Run flat out, then idle (no estimation, no optimization)."""

    def __init__(self, machine: Machine, space: ConfigurationSpace) -> None:
        self.machine = machine
        self.space = space

    def run(self, profile: ApplicationProfile, work: float,
            deadline: float) -> RunReport:
        """Race through ``work`` heartbeats, then idle until ``deadline``."""
        machine = self.machine
        window = RunWindow.open(machine, work, deadline)
        machine.load(profile)
        machine.apply(all_resources_config(self.space))

        last_rate = 0.0
        while window.running and not window.finished:
            step = min(window.quantum, window.time_left)
            if last_rate > 0:
                # Trim the final quantum to the time the remaining work
                # actually needs (estimated from the measured rate).
                step = min(step, max(window.work_left / last_rate, 1e-6))
            measurement = machine.run_for(step)
            last_rate = measurement.rate
            window.advance(step, measurement.heartbeats,
                           measurement.system_power, measurement.rate)
        if window.time_left > 0:
            window.idle(machine, window.time_left)
        return window.report(machine)


def race_to_idle_energy(rates: np.ndarray, powers: np.ndarray,
                        race_index: int, idle_power: float, work: float,
                        deadline: float) -> float:
    """Closed-form race-to-idle energy under known true tradeoffs.

    Used by analytic experiments: run configuration ``race_index`` for
    ``work / rate`` seconds, idle for the rest of the window.
    """
    rate = float(rates[race_index])
    if rate <= 0:
        raise ValueError("race configuration must have a positive rate")
    runtime = work / rate
    if runtime > deadline * (1 + 1e-9):
        raise ValueError("race configuration cannot meet the deadline")
    runtime = min(runtime, deadline)
    return float(powers[race_index]) * runtime + idle_power * (deadline - runtime)
