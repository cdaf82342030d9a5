"""EnergyManager: the one-stop facade over the whole stack.

Builds the machine, configuration space, offline dataset, estimator, and
controller, and exposes the paper's headline capability as one call:
*meet this performance demand while minimizing energy*.  Examples and
downstream users start here; the lower-level packages remain available
for anything the facade does not cover.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.estimators.registry import create_estimator
from repro.obs import Observability
from repro.obs import use as use_observability
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.runtime.controller import RunReport, RuntimeController, TradeoffEstimate
from repro.runtime.race_to_idle import RaceToIdleController
from repro.runtime.sampling import RandomSampler
from repro.workloads.profile import ApplicationProfile
from repro.workloads.suite import paper_suite
from repro.workloads.traces import OfflineDataset


class EnergyManager:
    """Minimize energy under performance constraints on a simulated server.

    Args:
        estimator: Name of the estimation approach ("leo", "online",
            "offline") or any registered name.
        space: Configuration space; the paper's 1024-config space by
            default.
        profiles: Applications whose offline traces form the prior
            knowledge; the paper's 25-benchmark suite by default.
        seed: Seed for the machine's measurement noise and the sampler.
        sample_count: Configurations sampled per calibration.
        observability: Optional tracer/metrics bundle
            (:class:`repro.obs.Observability`) installed for every
            facade call; ``None`` inherits the ambient context.
    """

    def __init__(self, estimator: str = "leo",
                 space: Optional[ConfigurationSpace] = None,
                 profiles: Optional[Sequence[ApplicationProfile]] = None,
                 seed: int = 0, sample_count: int = 20,
                 sample_window: float = 1.0,
                 observability: Optional[Observability] = None) -> None:
        self.space = space if space is not None else ConfigurationSpace.paper_space()
        self.profiles = list(profiles) if profiles is not None else paper_suite()
        self.machine = Machine(self.space.topology, seed=seed)
        self.estimator_name = estimator
        self.observability = observability
        self._seed = seed
        self._sample_count = sample_count
        self._sample_window = sample_window
        self._dataset: Optional[OfflineDataset] = None

    # ------------------------------------------------------------------
    @property
    def dataset(self) -> OfflineDataset:
        """The offline profiling tables (collected lazily, once)."""
        if self._dataset is None:
            collector = Machine(self.space.topology, seed=self._seed + 1)
            self._dataset = OfflineDataset.collect(
                collector, self.profiles, self.space, noisy=True)
        return self._dataset

    def _controller_for(self, target: ApplicationProfile) -> RuntimeController:
        """A controller whose priors exclude the target (leave-one-out)."""
        dataset = self.dataset
        if target.name in dataset.names:
            view = dataset.leave_one_out(target.name)
            prior_rates, prior_powers = view.prior_rates, view.prior_powers
        else:
            prior_rates, prior_powers = dataset.rates, dataset.powers
        return RuntimeController(
            machine=self.machine, space=self.space,
            estimator=create_estimator(self.estimator_name),
            prior_rates=prior_rates, prior_powers=prior_powers,
            sampler=RandomSampler(self._seed),
            sample_count=self._sample_count,
            sample_window=self._sample_window,
            observability=self.observability,
        )

    # ------------------------------------------------------------------
    def estimate_tradeoffs(self, profile: ApplicationProfile
                           ) -> TradeoffEstimate:
        """Sample the application and estimate its full tradeoff curves."""
        return self._controller_for(profile).calibrate(profile)

    def optimize(self, profile: ApplicationProfile, utilization: float,
                 deadline: float = 100.0,
                 estimate: Optional[TradeoffEstimate] = None) -> RunReport:
        """Run ``profile`` at a utilization demand, minimizing energy.

        ``utilization`` in (0, 1] demands that fraction of the
        application's maximum achievable work within ``deadline``
        (Section 6.4's sweep variable).  Supplying a previously obtained
        ``estimate`` amortizes calibration across utilization levels,
        as the paper's one-time estimation does.
        """
        if not 0 < utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        controller = self._controller_for(profile)
        if estimate is None:
            estimate = controller.calibrate(profile)
        true_max = max(
            self.machine.true_rate(profile, config) for config in self.space
        )
        work = utilization * true_max * deadline
        return controller.run(profile, work, deadline, estimate)

    def race_to_idle(self, profile: ApplicationProfile, utilization: float,
                     deadline: float = 100.0) -> RunReport:
        """The heuristic baseline under the same demand semantics."""
        if not 0 < utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        true_max = max(
            self.machine.true_rate(profile, config) for config in self.space
        )
        work = utilization * true_max * deadline
        racer = RaceToIdleController(self.machine, self.space)
        with use_observability(self.observability):
            return racer.run(profile, work, deadline)
