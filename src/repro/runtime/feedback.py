"""Lightweight feedback control on the learned hull (paper Section 7).

The paper positions LEO as "complementary to control based approaches":
once the Pareto-optimal hull is learned, a simple controller can hold a
performance target by moving along it, instead of re-solving the LP from
the remaining work each quantum.  That coupling — learned hull + integral
rate control — is the core of the authors' CALOREE follow-on; this is
its minimal form.

:class:`HullRateController` tracks a *constant* rate reference
``work / deadline`` with an integral update on a speedup signal:

    s(t+1) = clamp( s(t) + gain * (target - measured(t)) )

and actuates the hull's time-division at rate ``s`` within each quantum
(both bracket legs, proportioned by the hull weight).  Compared with the
re-solving :class:`~repro.runtime.controller.RuntimeController` it does
no optimization at run time — one hull lookup per quantum — at the cost
of a transient when the model is wrong, which the integral term then
absorbs.
"""

from __future__ import annotations

import numpy as np

from repro.optimize.pareto import TradeoffFrontier
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.runtime.controller import RunReport, RunWindow, TradeoffEstimate
from repro.workloads.profile import ApplicationProfile


class HullRateController:
    """Integral rate control along a learned tradeoff hull.

    Args:
        machine: Platform to drive.
        space: Its configuration space.
        gain: Integral gain on the normalized rate error.  1.0 is the
            deadbeat setting (one-window correction under a perfect
            model); lower is smoother, higher overshoots.
    """

    def __init__(self, machine: Machine, space: ConfigurationSpace,
                 gain: float = 0.6) -> None:
        if not 0 < gain <= 2.0:
            raise ValueError(f"gain must be in (0, 2], got {gain}")
        self.machine = machine
        self.space = space
        self.gain = gain

    def run(self, profile: ApplicationProfile, work: float, deadline: float,
            estimate: TradeoffEstimate) -> RunReport:
        """Hold ``work / deadline`` heartbeats/s along the hull."""
        machine = self.machine
        window = RunWindow.open(machine, work, deadline)
        machine.load(profile)
        frontier = TradeoffFrontier(estimate.rates, estimate.powers,
                                    idle_power=machine.idle_power())
        target = work / deadline
        signal = min(target, frontier.max_rate)

        while window.running:
            step = min(window.quantum, window.time_left)
            if window.finished:
                window.idle(machine, step)
                continue

            delivered, mean_power = self._actuate_hull(frontier, signal,
                                                       step)
            window.advance(step, delivered * step, mean_power, delivered)

            # Integral update on the normalized error.  The reference
            # also absorbs accumulated debt: if past windows fell short,
            # the remaining-work rate exceeds the original target.
            reference = max(target,
                            window.work_left / max(window.time_left, 1e-9))
            reference = min(reference, frontier.max_rate)
            error = (reference - delivered) / max(reference, 1e-9)
            signal = signal + self.gain * error * reference
            signal = float(np.clip(signal, 0.0, frontier.max_rate))
        return window.report(machine)

    def _actuate_hull(self, frontier: TradeoffFrontier, signal: float,
                      step: float):
        """Run one quantum time-divided at hull rate ``signal``.

        Returns the measured mean rate and mean power over the quantum.
        """
        low, high, lam = frontier.bracket(max(signal, 0.0))
        beats = 0.0
        energy = 0.0
        for vertex, share in ((low, 1.0 - lam), (high, lam)):
            if share <= 1e-9:
                continue
            duration = share * step
            if vertex.config_index is None:
                energy += self.machine.idle_for(duration)
            else:
                self.machine.apply(self.space[vertex.config_index])
                measurement = self.machine.run_for(duration)
                beats += measurement.heartbeats
                energy += measurement.energy
        return beats / step, energy / step
