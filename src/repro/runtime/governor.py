"""A Linux-style *ondemand* DVFS governor baseline.

The paper's testbed runs Linux, whose default frequency policy at the
time was the ondemand governor: give the application all cores, watch
utilization, raise the clock when busy and lower it when idle.  It is
the heuristic an unmanaged deployment actually gets — one step smarter
than race-to-idle (which pins TurboBoost), one step dumber than any
estimating approach (it never considers cores, hyperthreads, or memory
controllers, and it reacts only to the recent past).

:class:`OndemandGovernor` reproduces that policy on the simulated
machine: all cores / both hyperthreads / both memory controllers, with
the speed setting stepped up fast and down slowly based on how the
measured heartbeat rate compares to the demand.
"""

from __future__ import annotations

from typing import Dict, List

from repro.platform.config_space import Configuration, ConfigurationSpace
from repro.platform.machine import Machine
from repro.runtime.controller import RunReport, RunWindow
from repro.workloads.profile import ApplicationProfile

#: Fraction of the demand above which the governor jumps straight to the
#: highest speed (ondemand's aggressive up-step, triggered by high
#: utilization).
UP_THRESHOLD = 0.95
#: Speed-ladder steps dropped per quantum when the demand is comfortably
#: met (the slow down-ramp).
DOWN_STEP = 1


class OndemandGovernor:
    """All-resources allocation with reactive frequency scaling.

    Args:
        machine: Platform to drive.
        space: Its configuration space.
    """

    def __init__(self, machine: Machine, space: ConfigurationSpace) -> None:
        self.machine = machine
        self.space = space
        self._speed_ladder = self._build_speed_ladder(space)

    @staticmethod
    def _build_speed_ladder(space: ConfigurationSpace
                            ) -> List[Configuration]:
        """All-resources configurations ordered by speed setting."""
        max_threads = max(c.threads for c in space)
        max_mem = max(c.memory_controllers for c in space)
        by_speed: Dict[int, Configuration] = {}
        for config in space:
            if (config.threads == max_threads
                    and config.memory_controllers == max_mem):
                by_speed[config.speed.index] = config
        if not by_speed:
            raise ValueError("space has no all-resources configurations")
        return [by_speed[i] for i in sorted(by_speed)]

    def run(self, profile: ApplicationProfile, work: float,
            deadline: float) -> RunReport:
        """Execute ``work`` heartbeats under the ondemand policy."""
        machine = self.machine
        window = RunWindow.open(machine, work, deadline)
        machine.load(profile)
        ladder = self._speed_ladder
        level = len(ladder) - 1  # ondemand starts high on a busy wakeup
        last_rate = 0.0

        while window.running:
            if window.finished:
                window.idle(machine, window.time_left)
                break
            step = min(window.quantum, window.time_left)
            if last_rate > 0:
                step = min(step, max(window.work_left / last_rate, 1e-6))
            machine.apply(ladder[level])
            measurement = machine.run_for(step)
            last_rate = measurement.rate
            window.advance(step, measurement.heartbeats,
                           measurement.system_power, measurement.rate)

            # Policy update from observed demand pressure.
            required = (window.work_left / window.time_left
                        if window.time_left > 1e-9 else float("inf"))
            if measurement.rate < required / UP_THRESHOLD:
                level = len(ladder) - 1
            elif measurement.rate > 1.3 * required:
                level = max(level - DOWN_STEP, 0)
        return window.report(machine)
