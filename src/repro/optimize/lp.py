"""The energy-minimization linear program (paper Eq. 1) and its solvers.

    minimize    sum_c p_c t_c
    subject to  sum_c r_c t_c  = W     (work finished)
                sum_c t_c     <= T     (by the deadline)
                t >= 0

Because the LP has two constraints, its optimum uses at most two
configurations; geometrically it lies on the lower convex hull of the
(rate, power) cloud.  :class:`EnergyMinimizer` solves it by walking that
hull (exactly what the paper describes in Section 5.3), and can
cross-check itself against the from-scratch simplex solver.

Two accounting modes are supported:

* ``"deadline-energy"`` (default): the system must exist until the
  deadline, so unused time is charged at idle power.  This matches the
  paper's measurements (energy is read off a wall meter over the whole
  window; race-to-idle's idle tail is charged).  It is the Eq. (1) LP
  with an explicit idle configuration (rate 0, idle power) and the time
  constraint tightened to equality.
* ``"active-energy"``: the literal Eq. (1) objective, where time after
  completion is free.  Here it can pay to finish early in the most
  energy-efficient configuration.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import InfeasibleConstraintError
from repro.obs import get_observability
from repro.optimize.pareto import TradeoffFrontier
from repro.optimize.schedule import Schedule, Slot
from repro.optimize.simplex import SimplexSolution, solve_lp

# Back-compat alias: InfeasibleConstraintError was born in this module
# and moved to repro.errors in the exception consolidation; imports of
# ``repro.optimize.lp.InfeasibleConstraintError`` resolve to the same
# class object.
__all__ = ["EnergyMinimizer", "InfeasibleConstraintError"]

_MODES = ("deadline-energy", "active-energy")


class EnergyMinimizer:
    """Solves Eq. (1) for one application's estimated tradeoffs.

    Args:
        rates: Estimated per-configuration heartbeat rates.
        powers: Estimated per-configuration powers.
        idle_power: System idle power (the rate-0 anchor).
        mode: Energy accounting mode, see module docstring.
    """

    def __init__(self, rates: Sequence[float], powers: Sequence[float],
                 idle_power: float, mode: str = "deadline-energy") -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.rates = np.asarray(rates, dtype=float)
        self.powers = np.asarray(powers, dtype=float)
        if self.rates.shape != self.powers.shape or self.rates.ndim != 1:
            raise ValueError("rates and powers must be equal-length 1-D arrays")
        self.idle_power = float(idle_power)
        self.mode = mode
        self.frontier = TradeoffFrontier(self.rates, self.powers,
                                         idle_power=self.idle_power)

    # ------------------------------------------------------------------
    # Problem geometry
    # ------------------------------------------------------------------
    @property
    def max_rate(self) -> float:
        """Highest estimated sustainable rate."""
        return self.frontier.max_rate

    # ------------------------------------------------------------------
    # Hull-walk solver (the paper's method)
    # ------------------------------------------------------------------
    def solve(self, work: float, deadline: float) -> Schedule:
        """Minimal-energy schedule finishing ``work`` by ``deadline``.

        Raises :class:`InfeasibleConstraintError` (a ``ValueError``)
        when the demand exceeds the estimated capacity
        (``work > max_rate * deadline``); the error carries the maximum
        achievable rate so callers can clamp and degrade.
        """
        ob = get_observability()
        if not ob.enabled:
            return self._solve(work, deadline)
        with ob.tracer.span("lp.solve", work=float(work),
                            deadline=float(deadline), mode=self.mode) as span:
            schedule = self._solve(work, deadline)
            span.set_attribute("hull_vertices", len(self.frontier.vertices))
            span.set_attribute(
                "chosen_configs",
                [slot.config_index for slot in schedule
                 if slot.config_index is not None])
        ob.metrics.inc("lp_resolves_total")
        return schedule

    def _solve(self, work: float, deadline: float) -> Schedule:
        """The uninstrumented hull walk behind :meth:`solve`."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        if not math.isfinite(deadline) or deadline <= 0:
            raise ValueError(
                f"deadline must be positive and finite, got {deadline}")
        required = work / deadline
        if required > self.max_rate * (1 + 1e-12):
            raise InfeasibleConstraintError(required, self.max_rate)
        required = min(required, self.max_rate)

        if self.mode == "active-energy":
            best = self.frontier.energy_per_work()
            if work == 0:
                return Schedule([])
            if work / best.rate <= deadline:
                # Time constraint slack: run the most efficient vertex alone.
                return Schedule([Slot(best.config_index, work / best.rate)])
        # Deadline-energy mode, or active mode with the time constraint
        # binding: mix the two hull vertices around the required rate.
        low, high, lam = self.frontier.bracket(required)
        slots = [
            Slot(low.config_index, (1.0 - lam) * deadline),
            Slot(high.config_index, lam * deadline),
        ]
        return Schedule(slots)

    def min_energy(self, work: float, deadline: float) -> float:
        """Energy (J) of the optimal schedule under the estimated model."""
        return self.schedule_energy(self.solve(work, deadline), deadline)

    def schedule_energy(self, schedule: Schedule, deadline: float) -> float:
        """Energy (J) of ``schedule`` under the estimated model and mode."""
        energy = schedule.energy(self.powers, self.idle_power)
        if self.mode == "deadline-energy":
            # Charge idle power for any window time the schedule leaves.
            energy += self.idle_power * max(deadline - schedule.total_time, 0.0)
        return energy

    # ------------------------------------------------------------------
    # Simplex cross-check
    # ------------------------------------------------------------------
    def solve_simplex(self, work: float, deadline: float
                      ) -> Tuple[Schedule, SimplexSolution]:
        """Solve the same instance with the general simplex solver.

        Builds the LP over all configurations plus (in deadline-energy
        mode) an explicit idle variable and a time-equality row; in
        active-energy mode the time row gets a slack variable instead.
        Returns the recovered schedule and the raw simplex solution.
        """
        n = self.rates.size
        if self.mode == "deadline-energy":
            # Variables: t_1..t_n, t_idle.
            c = np.concatenate([self.powers, [self.idle_power]])
            a = np.vstack([
                np.concatenate([self.rates, [0.0]]),
                np.ones(n + 1),
            ])
            b = np.array([work, deadline])
            solution = solve_lp(c, a, b)
            slots = [Slot(i, solution.x[i]) for i in range(n)]
            slots.append(Slot(None, solution.x[n]))
        else:
            # Variables: t_1..t_n, slack for the time row.
            c = np.concatenate([self.powers, [0.0]])
            a = np.vstack([
                np.concatenate([self.rates, [0.0]]),
                np.ones(n + 1),
            ])
            b = np.array([work, deadline])
            solution = solve_lp(c, a, b)
            slots = [Slot(i, solution.x[i]) for i in range(n)]
        return Schedule(slots), solution

    # ------------------------------------------------------------------
    # Heuristics expressed in the same vocabulary
    # ------------------------------------------------------------------
    def race_to_idle(self, work: float, deadline: float,
                     race_config: Optional[int] = None) -> Schedule:
        """The race-to-idle schedule: all resources, then idle.

        ``race_config`` defaults to the configuration with the highest
        estimated rate (allocating everything, as the heuristic does).
        """
        if race_config is None:
            race_config = int(np.argmax(self.rates))
        rate = self.rates[race_config]
        runtime = work / rate
        if runtime > deadline * (1 + 1e-12):
            raise ValueError(
                f"race config {race_config} cannot finish {work:g} work "
                f"within {deadline:g}s"
            )
        runtime = min(runtime, deadline)
        return Schedule([Slot(race_config, runtime),
                         Slot(None, deadline - runtime)])
