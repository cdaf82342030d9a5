"""The LEO runtime: sample, estimate, optimize, actuate (Section 5.4).

:class:`RuntimeController` drives the simulated machine the way the
paper's runtime drives its server:

1. **Calibrate** — apply a handful of sampled configurations, measure
   heartbeat rate and power in each (the "minuscule sampling overhead"
   of Section 6.7), and hand the observations to an estimator to
   complete both curves.
2. **Run** — solve the Eq. (1) LP on the estimated tradeoffs, execute
   the schedule in short quanta, and re-solve each quantum from the
   *measured* progress, which is the gradient-ascent-style feedback that
   lets every approach meet its performance goal (Section 6.6).
3. **Adapt** — optionally watch for phase changes through a
   :class:`~repro.runtime.phase_detector.PhaseDetector` and re-calibrate
   when the model stops matching reality.

Energy is accounted on the machine itself, so calibration and
re-calibration costs are charged to whoever incurs them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import CheckpointError, SensorReadError
from repro.estimators.base import (
    EstimationProblem,
    Estimator,
    InsufficientSamplesError,
    normalize_problem,
)
from repro.obs import Observability, Span, Tracer, get_observability
from repro.obs import use as use_observability
from repro.optimize.lp import EnergyMinimizer
from repro.optimize.schedule import Slot
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.runtime.phase_detector import PhaseDetector
from repro.runtime.resilience import (
    PINNED_TIER,
    RECOVERABLE_EXCEPTIONS,
    CircuitBreaker,
    DegradationLadder,
    Tier,
    pinned_curves,
)
from repro.runtime.sampling import RandomSampler, Sampler
from repro.workloads.phases import PhasedWorkload
from repro.workloads.profile import ApplicationProfile

logger = logging.getLogger(__name__)

#: Control quantum of every runtime loop, as a fraction of its window.
QUANTUM_FRACTION = 0.05
#: Relative rate deviation tolerated at a configuration the run has not
#: measured yet before the phase detector counts it (estimation error
#: there is easily mistaken for a phase change).
NOVEL_CONFIG_TOLERANCE = 0.35
#: Extra work the remaining-horizon LP plans for, absorbing optimistic
#: rate estimates on the frontier's legs.
SAFETY_MARGIN = 0.04
#: Version of the checkpoint payload :meth:`RunState.to_payload` writes.
CHECKPOINT_SCHEMA = 1


def _rng_state(owner) -> Optional[dict]:
    """``owner``'s Generator state (PCG64's is plain JSON), or ``None``."""
    rng = getattr(owner, "_rng", None)
    return None if rng is None else rng.bit_generator.state


def _restore_rng(owner, state: Optional[dict]) -> None:
    rng = getattr(owner, "_rng", None)
    if rng is not None and state is not None:
        rng.bit_generator.state = state


class TradeoffEstimate:
    """Estimated per-configuration rates and powers, with provenance.

    The sampling/fit bookkeeping is *derived from the calibration spans*
    when present (``spans`` — the trace subtree recorded by
    :meth:`RuntimeController.calibrate`); the spans are the single
    source of truth, and the legacy keyword arguments remain as stored
    fallbacks for estimates built without calibration (persisted
    records, synthetic estimates, tests).

    Attributes:
        rates: Estimated heartbeat rates, shape ``(n,)``, positive.
        powers: Estimated system powers, shape ``(n,)``, positive.
        estimator_name: Which approach produced the estimate.
        spans: Calibration spans (``controller.calibrate`` and its
            children), empty for span-less estimates.
    """

    __slots__ = ("rates", "powers", "estimator_name", "spans",
                 "_sampling_time", "_sampling_energy",
                 "_sampling_heartbeats", "_fit_seconds")

    def __init__(self, rates: np.ndarray, powers: np.ndarray,
                 estimator_name: str, sampling_time: float = 0.0,
                 sampling_energy: float = 0.0,
                 sampling_heartbeats: float = 0.0,
                 fit_seconds: float = 0.0,
                 spans: Sequence[Span] = ()) -> None:
        self.rates = np.asarray(rates, dtype=float)
        self.powers = np.asarray(powers, dtype=float)
        self.estimator_name = estimator_name
        self.spans: Tuple[Span, ...] = tuple(spans)
        self._sampling_time = float(sampling_time)
        self._sampling_energy = float(sampling_energy)
        self._sampling_heartbeats = float(sampling_heartbeats)
        self._fit_seconds = float(fit_seconds)

    # -- span-derived bookkeeping ---------------------------------------
    def _span_attr_sum(self, span_name: str, attr: str) -> Optional[float]:
        """Sum ``attr`` over spans named ``span_name``; None if absent."""
        total, found = 0.0, False
        for span in self.spans:
            if span.name == span_name and attr in span.attributes:
                total += float(span.attributes[attr])
                found = True
        return total if found else None

    @property
    def sampling_time(self) -> float:
        """Simulated seconds spent measuring samples."""
        derived = self._span_attr_sum("controller.sample", "sampling_time")
        return derived if derived is not None else self._sampling_time

    @property
    def sampling_energy(self) -> float:
        """Joules spent measuring samples."""
        derived = self._span_attr_sum("controller.sample", "sampling_energy")
        return derived if derived is not None else self._sampling_energy

    @property
    def sampling_heartbeats(self) -> float:
        """Heartbeats completed during the sampling windows (the
        application keeps running while being measured; inline
        re-calibration credits these to the run)."""
        derived = self._span_attr_sum("controller.sample",
                                      "sampling_heartbeats")
        return derived if derived is not None else self._sampling_heartbeats

    @property
    def fit_seconds(self) -> float:
        """Wall-clock seconds the estimator itself took (both fitted
        quantities) — the paper's Section 6.7 overhead figure, read off
        the ``estimator.fit`` spans."""
        durations = [span.duration for span in self.spans
                     if span.name == "estimator.fit"]
        return sum(durations) if durations else self._fit_seconds

    def __repr__(self) -> str:
        return (f"TradeoffEstimate({self.estimator_name!r}, "
                f"n={self.rates.size}, "
                f"sampling_time={self.sampling_time:.3f}, "
                f"fit_seconds={self.fit_seconds:.3f})")


@dataclasses.dataclass
class RunReport:
    """Outcome of one controlled execution window.

    Attributes:
        energy: Joules consumed over the window (including any inline
            re-calibration).
        work_done: Heartbeats completed.
        work_target: Heartbeats demanded.
        deadline: Window length in simulated seconds.
        met_target: Whether the demand was met (within 1 % tolerance,
            absorbing measurement noise on the final quantum).
        reestimations: Phase-change re-calibrations performed.
        power_trace: Mean power of each executed quantum, for the
            Figure 13-style time series.
        rate_trace: Measured rate of each executed quantum.
    """

    energy: float
    work_done: float
    work_target: float
    deadline: float
    met_target: bool
    reestimations: int
    power_trace: List[float]
    rate_trace: List[float]


@dataclasses.dataclass
class RunWindow:
    """The bookkeeping of one execution window, shared by every loop.

    Each runtime loop spends ``deadline`` seconds on ``work`` heartbeats
    in quanta and accounts each executed slice here: ``time_left`` and
    ``work_left`` count down (``work_left`` goes negative on overshoot),
    the traces grow, and ``energy_start`` is the machine's total energy
    when the window opened.
    """

    work: float
    deadline: float
    energy_start: float
    time_left: float
    work_left: float
    power_trace: List[float]
    rate_trace: List[float]

    @classmethod
    def open(cls, machine: Machine, work: float, deadline: float,
             **fields):
        """A window opening now; ``fields`` fill a subclass's attributes."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        return cls(work=work, deadline=deadline,
                   energy_start=machine.total_energy, time_left=deadline,
                   work_left=work, power_trace=[], rate_trace=[], **fields)

    @property
    def quantum(self) -> float:
        """The control quantum, a fixed fraction of the window."""
        return self.deadline * QUANTUM_FRACTION

    @property
    def running(self) -> bool:
        """Whether any of the window is left."""
        return self.time_left > 1e-9 * self.deadline

    @property
    def finished(self) -> bool:
        """Whether the demanded work is done."""
        return self.work_left <= 1e-9 * max(self.work, 1.0)

    def advance(self, seconds: float, heartbeats: float, power: float,
                rate: float) -> None:
        """Account one executed slice of the window."""
        self.work_left -= heartbeats
        self.time_left -= seconds
        self.power_trace.append(power)
        self.rate_trace.append(rate)

    def idle(self, machine: Machine, seconds: float) -> None:
        """Idle ``machine`` for ``seconds`` of the window."""
        machine.idle_for(seconds)
        self.advance(seconds, 0.0, machine.idle_power(), 0.0)

    def report(self, machine: Machine, reestimations: int = 0) -> RunReport:
        """The window's outcome on ``machine``."""
        work_done = self.work - max(self.work_left, 0.0)
        return RunReport(
            energy=machine.total_energy - self.energy_start,
            work_done=work_done, work_target=self.work,
            deadline=self.deadline, met_target=work_done >= 0.99 * self.work,
            reestimations=reestimations,
            power_trace=self.power_trace, rate_trace=self.rate_trace,
        )


#: :class:`RunState`'s scalar checkpoint fields and their JSON types.
_SCALAR_FIELDS = (("work", float), ("deadline", float),
                  ("energy_start", float), ("time_left", float),
                  ("work_left", float), ("adapt", bool),
                  ("quantum_index", int), ("reestimations", int))
#: The estimate's span-derived bookkeeping, checkpointed as plain values.
_ESTIMATE_BOOKKEEPING = ("sampling_time", "sampling_energy",
                         "sampling_heartbeats", "fit_seconds")


@dataclasses.dataclass
class RunState(RunWindow):
    """The LEO controller's run: its window plus the model it re-solves.

    The state *is* the checkpoint: :meth:`to_payload` serializes it and
    :meth:`from_payload` rebuilds it.  ``rates`` and ``powers`` are
    working copies of the estimate that measured feedback corrects in
    place (the runtime's gradient ascent, Section 6.6); ``visited``
    holds the configurations measured since the last (re-)estimate.
    ``idle_power`` and the derived ``minimizer`` are not serialized.
    The state mutates in place, so no quantum copies curves or traces.
    """

    profile: ApplicationProfile
    adapt: bool
    estimate: TradeoffEstimate
    rates: np.ndarray
    powers: np.ndarray
    idle_power: float
    quantum_index: int = 0
    reestimations: int = 0
    visited: Set[int] = dataclasses.field(default_factory=set)
    minimizer: EnergyMinimizer = dataclasses.field(init=False, repr=False,
                                                   compare=False)

    def __post_init__(self) -> None:
        self._rebuild_minimizer()

    def _rebuild_minimizer(self) -> None:
        self.minimizer = EnergyMinimizer(self.rates, self.powers,
                                         self.idle_power)

    def adopt(self, estimate: TradeoffEstimate) -> None:
        """Replace the curves after a promotion or a re-calibration."""
        self.estimate = estimate
        self.rates = estimate.rates.copy()
        self.powers = estimate.powers.copy()
        self._rebuild_minimizer()
        self.visited.clear()

    def correct(self, index: int, rate: float, power: float) -> None:
        """Fold one configuration's measurement into the curves."""
        self.rates[index] = rate
        self.powers[index] = power
        self._rebuild_minimizer()

    def to_payload(self) -> dict:
        """The checkpoint's run state, as plain JSON."""
        estimate = self.estimate
        payload = {name: kind(getattr(self, name))
                   for name, kind in _SCALAR_FIELDS}
        payload.update(
            schema_version=CHECKPOINT_SCHEMA, profile=self.profile.name,
            rates=self.rates.tolist(), powers=self.powers.tolist(),
            estimate={"rates": estimate.rates.tolist(),
                      "powers": estimate.powers.tolist(),
                      "estimator_name": estimate.estimator_name,
                      **{key: getattr(estimate, key)
                         for key in _ESTIMATE_BOOKKEEPING}},
            visited=sorted(int(i) for i in self.visited),
            power_trace=[float(x) for x in self.power_trace],
            rate_trace=[float(x) for x in self.rate_trace])
        return payload

    @classmethod
    def from_payload(cls, payload: dict, profile: ApplicationProfile,
                     num_configs: int, idle_power: float) -> "RunState":
        """Rebuild a run of ``profile`` over ``num_configs`` configurations.

        Raises :class:`CheckpointError` for another schema, another
        application, or curves of another length (a checkpoint taken on
        a different configuration space).
        """
        schema = payload.get("schema_version", CHECKPOINT_SCHEMA)
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema_version {schema!r} is not supported")
        if payload.get("profile") != profile.name:
            raise CheckpointError(
                f"checkpoint was taken for application "
                f"{payload.get('profile')!r}, not {profile.name!r}")
        est = payload["estimate"]
        estimate = TradeoffEstimate(
            rates=est["rates"], powers=est["powers"],
            estimator_name=est["estimator_name"],
            **{key: est[key] for key in _ESTIMATE_BOOKKEEPING})
        rates = np.asarray(payload["rates"], dtype=float)
        powers = np.asarray(payload["powers"], dtype=float)
        sizes = {curve.size for curve in (rates, powers, estimate.rates,
                                          estimate.powers)}
        if sizes != {num_configs}:
            raise CheckpointError(
                f"checkpoint curves cover {sorted(sizes)} configurations; "
                f"this controller's space has {num_configs}")
        return cls(
            **{name: kind(payload[name]) for name, kind in _SCALAR_FIELDS},
            power_trace=[float(x) for x in payload["power_trace"]],
            rate_trace=[float(x) for x in payload["rate_trace"]],
            profile=profile, estimate=estimate, rates=rates, powers=powers,
            idle_power=idle_power,
            visited={int(i) for i in payload["visited"]})


class RuntimeController:
    """Sample/estimate/optimize/actuate loop over a simulated machine.

    Args:
        machine: The platform to drive.
        space: Configuration space the machine exposes.
        estimator: Approach used to complete the sampled curves.  The
            same instance estimates performance (in normalized space)
            and power (in absolute watts).
        prior_rates: ``(M-1, n)`` offline rate table, or ``None``.
        prior_powers: ``(M-1, n)`` offline power table, or ``None``.
        sampler: Strategy choosing which configurations to measure.
        sample_count: Configurations measured per calibration.
        sample_window: Seconds per sample measurement.
        observability: Optional tracer/metrics bundle installed as the
            ambient context for every :meth:`calibrate` / :meth:`run`
            call; ``None`` (the default) inherits whatever the caller
            installed via :func:`repro.obs.use`.
        promotion_cooldown: Consecutive healthy quanta a degraded
            controller waits before probing one ladder rung back up.
    """

    def __init__(self, machine: Machine, space: ConfigurationSpace,
                 estimator: Estimator,
                 prior_rates: Optional[np.ndarray] = None,
                 prior_powers: Optional[np.ndarray] = None,
                 sampler: Optional[Sampler] = None,
                 sample_count: int = 20,
                 sample_window: float = 1.0,
                 observability: Optional[Observability] = None,
                 promotion_cooldown: int = 8,
                 clock=None,
                 promotion_cooldown_s: Optional[float] = None) -> None:
        if sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {sample_count}")
        if sample_window <= 0:
            raise ValueError(f"sample_window must be positive, got {sample_window}")
        if promotion_cooldown < 1:
            raise ValueError(
                f"promotion_cooldown must be >= 1, got {promotion_cooldown}"
            )
        self.machine = machine
        self.space = space
        self.estimator = estimator
        self.prior_rates = prior_rates
        self.prior_powers = prior_powers
        # The default sampler is explicitly seeded: an OS-entropy default
        # would make calibration nondeterministic, which silently breaks
        # result equality between repeated experiment runs.  Callers
        # wanting independent draws pass a per-cell-seeded sampler
        # (RandomSampler(seed=cell_seed)).
        self.sampler = sampler if sampler is not None else RandomSampler(seed=0)
        self.sample_count = sample_count
        self.sample_window = sample_window
        self.observability = observability
        self.promotion_cooldown = promotion_cooldown
        #: Optional :class:`~repro.clock.Clock`.  A *virtual* clock is
        #: advanced in lockstep with the machine's simulated clock
        #: (quantum loop, calibration sampling), so fault windows, SLO
        #: streams, and breaker cooldowns anchored to it see the same
        #: timeline the machine lives on.  ``None`` — the default — adds
        #: no clock coupling and changes nothing.
        self.clock = clock
        #: Breaker cooldown in clock seconds; ``None`` keeps the
        #: original quanta-counted cooldown (``promotion_cooldown``).
        self.promotion_cooldown_s = promotion_cooldown_s
        # The degradation ladder is built lazily on first use, so the
        # fallback estimators exist only once the controller actually
        # estimates (and so construction stays cheap for callers that
        # bring their own estimate).
        self._ladder: Optional[DegradationLadder] = None
        #: The estimate in force at the end of the most recent run().
        self.last_estimate: Optional[TradeoffEstimate] = None

    def _obs_scope(self):
        """Install the controller's bundle, if it has one."""
        return use_observability(self.observability)

    # ------------------------------------------------------------------
    # Virtual-time coupling
    # ------------------------------------------------------------------
    def _clock_anchor(self):
        """``(clock, machine_origin, clock_origin)``, or ``None``.

        Anchors the attached *virtual* clock to the machine's simulated
        clock so :meth:`_sync_clock` can mirror machine progress onto
        it absolutely — nested scopes (an inline re-calibration inside a
        run) each anchor themselves and compose without double counting,
        because both resolve to the same machine-clock instant.
        """
        clk = self.clock
        if clk is None or not clk.is_virtual:
            return None
        return (clk, self.machine.clock, clk.now())

    def _sync_clock(self, anchor) -> None:
        if anchor is not None:
            clk, machine_origin, clock_origin = anchor
            clk.advance_to(clock_origin
                           + (self.machine.clock - machine_origin))

    # ------------------------------------------------------------------
    # Resilience: the estimator degradation ladder
    # ------------------------------------------------------------------
    @property
    def ladder(self) -> DegradationLadder:
        """The estimator degradation ladder (built on first access)."""
        if self._ladder is None:
            self._ladder = self._build_ladder()
        return self._ladder

    def _build_ladder(self) -> DegradationLadder:
        """The configured estimator, then ``online`` regression, then the
        ``offline`` prior mean when priors exist, then the pinned tier
        (see :mod:`repro.runtime.resilience`)."""
        from repro.estimators.registry import create_estimator
        tiers = [Tier(self.estimator.name, self.estimator)]
        names = ["online"]
        if self.prior_rates is not None and self.prior_powers is not None:
            names.append("offline")
        for fallback in [create_estimator(name) for name in names]:
            if fallback.name not in {tier.name for tier in tiers}:
                tiers.append(Tier(fallback.name, fallback))
        tiers.append(Tier(PINNED_TIER, None))
        return DegradationLadder(
            tiers,
            breaker=CircuitBreaker(cooldown_quanta=self.promotion_cooldown,
                                   cooldown_s=self.promotion_cooldown_s,
                                   clock=self.clock))

    # ------------------------------------------------------------------
    # Calibration: sample + estimate
    # ------------------------------------------------------------------
    def calibrate(self, profile: ApplicationProfile,
                  sample_count: Optional[int] = None,
                  sample_window: Optional[float] = None) -> TradeoffEstimate:
        """Measure sampled configurations and estimate both curves.

        The returned estimate carries the calibration's trace subtree
        (``controller.calibrate`` → ``controller.sample`` +
        ``estimator.fit`` → ...); its sampling/fit bookkeeping is read
        off those spans.  When no tracer is installed, the spans are
        recorded into a private bookkeeping tracer so the estimate is
        self-describing either way.
        """
        count = sample_count if sample_count is not None else self.sample_count
        window = sample_window if sample_window is not None else self.sample_window
        anchor = self._clock_anchor()
        with self._obs_scope():
            ambient = get_observability()
            if ambient.tracer.is_recording:
                scope = contextlib.nullcontext(ambient)
            else:
                # Spans are the estimate's single source of truth, so
                # calibration always records into *some* tracer — a
                # throwaway one when tracing is disabled (a handful of
                # objects per calibration, invisible next to the fit).
                scope = use_observability(
                    Observability(tracer=Tracer(), metrics=ambient.metrics))
            with scope as active:
                tracer = active.tracer
                mark = tracer.num_finished
                with tracer.span("controller.calibrate",
                                 estimator=self.estimator.name,
                                 sample_count=count,
                                 sample_window=window):
                    self.machine.load(profile)
                    energy_before = self.machine.total_energy
                    clock_before = self.machine.clock

                    with tracer.span("controller.sample") as sample_span:
                        chosen = self.sampler.select(len(self.space), count)
                        kept: List[int] = []
                        rate_obs: List[float] = []
                        power_obs: List[float] = []
                        heartbeats = 0.0
                        dropped = 0
                        for i in chosen:
                            self.machine.apply(self.space[int(i)])
                            try:
                                measurement = self.machine.run_for(window)
                            except SensorReadError:
                                # The window ran (time and energy were
                                # spent) but its observation was lost;
                                # calibrate on the surviving samples.
                                dropped += 1
                                continue
                            kept.append(int(i))
                            rate_obs.append(measurement.rate)
                            power_obs.append(measurement.system_power)
                            heartbeats += measurement.heartbeats
                        indices = np.asarray(kept, dtype=int)
                        rates = np.asarray(rate_obs, dtype=float)
                        powers = np.asarray(power_obs, dtype=float)
                        sampling_time = self.machine.clock - clock_before
                        sampling_energy = (self.machine.total_energy
                                           - energy_before)
                        sample_span.set_attribute("num_samples",
                                                  int(indices.size))
                        if dropped:
                            sample_span.set_attribute("dropped_samples",
                                                      dropped)
                            active.metrics.inc(
                                "fault_sampling_dropouts_total", dropped)
                        sample_span.set_attribute("sampling_time",
                                                  sampling_time)
                        sample_span.set_attribute("sampling_energy",
                                                  sampling_energy)
                        sample_span.set_attribute("sampling_heartbeats",
                                                  heartbeats)
                    active.metrics.inc("sampling_energy_joules",
                                       sampling_energy)

                    if indices.size == 0:
                        raise InsufficientSamplesError(
                            "every calibration sample was lost to sensor "
                            "dropout")
                    features = self.space.feature_matrix()
                    rate_curve, power_curve, tier = self._fit_with_ladder(
                        features, indices, rates, powers)
                spans = tracer.finished_since(mark)

        self._sync_clock(anchor)
        return TradeoffEstimate(
            rates=rate_curve, powers=power_curve,
            estimator_name=tier.name,
            spans=spans,
        )

    def _fit_with_ladder(self, features: np.ndarray, indices: np.ndarray,
                         rates: np.ndarray, powers: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, Tier]:
        """Fit both curves at the best ladder rung that survives.

        Walks the degradation ladder from the currently trusted tier
        down, falling past recoverable failures (EM divergence, singular
        covariances, service transport errors) until a tier fits; the
        terminal pinned tier cannot fail given at least one sample.
        Demotes (and records resilience metrics) when anything below the
        trusted tier had to be used; the fault-free path runs the
        trusted tier alone and is bit-identical to a ladder-less fit.
        """
        ladder = self.ladder
        start = ladder.tier_index
        failure: Optional[BaseException] = None
        for tier_index, tier in ladder.tiers_from_current():
            try:
                if tier.pinned:
                    rate_curve, power_curve = pinned_curves(
                        len(self.space), indices, rates, powers)
                else:
                    rate_curve = self._estimate_rates(
                        tier.estimator, features, indices, rates)
                    power_curve = self._estimate_powers(
                        tier.estimator, features, indices, powers)
            except InsufficientSamplesError:
                # Too few samples is an input-size condition, not a
                # fault: at the trusted tier it propagates (callers keep
                # the previous estimate, as before the ladder existed);
                # at a lower rung the ladder keeps falling.
                if tier_index == start:
                    raise
                continue
            except RECOVERABLE_EXCEPTIONS as exc:
                failure = exc
                get_observability().metrics.inc(
                    "fault_estimator_failures_total")
                logger.warning(
                    "estimator tier failed; falling back",
                    extra={"fields": {
                        "tier": tier.name,
                        "error": f"{type(exc).__name__}: {exc}"}})
                continue
            if tier_index > start:
                reason = (f"{type(failure).__name__}: {failure}"
                          if failure is not None else "insufficient samples")
                ladder.demote_to(tier_index, reason=reason)
            return rate_curve, power_curve, tier
        assert failure is not None  # pinned cannot fail with samples
        raise failure

    def _estimate_rates(self, estimator: Estimator, features: np.ndarray,
                        indices: np.ndarray, rates: np.ndarray
                        ) -> np.ndarray:
        problem = EstimationProblem(
            features=features, prior=self.prior_rates,
            observed_indices=indices, observed_values=rates)
        normalized, scale = normalize_problem(problem)
        curve = estimator.estimate(normalized) * scale
        return self._clip_positive(curve, rates)

    def _estimate_powers(self, estimator: Estimator, features: np.ndarray,
                         indices: np.ndarray, powers: np.ndarray
                         ) -> np.ndarray:
        problem = EstimationProblem(
            features=features, prior=self.prior_powers,
            observed_indices=indices, observed_values=powers)
        curve = estimator.estimate(problem)
        return self._clip_positive(curve, powers)

    @staticmethod
    def _clip_positive(curve: np.ndarray, observations: np.ndarray
                       ) -> np.ndarray:
        """Floor estimates at a sliver of the smallest observation.

        Negative rates or powers are physically meaningless and would
        break the frontier; real observations are strictly positive.
        """
        floor = 1e-3 * float(np.min(observations))
        return np.maximum(curve, max(floor, 1e-12))

    # ------------------------------------------------------------------
    # Controlled execution
    # ------------------------------------------------------------------
    def run(self, profile: ApplicationProfile, work: float, deadline: float,
            estimate: TradeoffEstimate, adapt: bool = False,
            detector: Optional[PhaseDetector] = None,
            checkpointer=None) -> RunReport:
        """Execute ``work`` heartbeats of ``profile`` within ``deadline``.

        Re-solves the LP every quantum from measured progress.  With
        ``adapt=True`` a phase detector may trigger an inline
        re-calibration, whose time and energy are charged to this run.

        ``checkpointer`` — a :class:`~repro.runtime.persistence.
        CheckpointManager` (or anything with its ``maybe_save(index,
        payload_fn)`` shape) — snapshots the loop state at quantum
        boundaries so a crashed run can be continued with
        :meth:`resume`, bit-equal to the uninterrupted run.
        """
        with self._obs_scope():
            state = RunState.open(
                self.machine, work, deadline, profile=profile, adapt=adapt,
                estimate=estimate, rates=estimate.rates.copy(),
                powers=estimate.powers.copy(),
                idle_power=self.machine.idle_power())
            self.machine.load(profile)
            return self._drive(state, detector, checkpointer)

    def _drive(self, state: RunState, detector: Optional[PhaseDetector],
               checkpointer) -> RunReport:
        """Advance ``state`` quantum by quantum to the end of its window."""
        ob = get_observability()
        tracer = ob.tracer
        if state.adapt and detector is None:
            detector = PhaseDetector()
        quantum = state.quantum
        anchor = self._clock_anchor()

        with tracer.span("controller.run", work=state.work,
                         deadline=state.deadline,
                         estimator=state.estimate.estimator_name,
                         adapt=state.adapt) as run_span:
            while state.running:
                self._sync_clock(anchor)
                if checkpointer is not None:
                    checkpointer.maybe_save(
                        state.quantum_index,
                        lambda: self._checkpoint(state, detector))
                ladder = self._ladder
                if (ladder is not None and ladder.promotion_ready
                        and not state.finished and state.time_left > quantum):
                    # The breaker cooled down: probe one rung up with a
                    # short re-calibration, charged to this run like any
                    # inline re-calibration.
                    probe, elapsed = self._attempt_promotion(state.profile)
                    state.time_left -= elapsed
                    if probe is not None:
                        state.work_left -= probe.sampling_heartbeats
                        state.adopt(probe)
                    continue
                state.quantum_index += 1
                ob.metrics.inc("quanta_total")
                with tracer.span("controller.quantum",
                                 index=state.quantum_index) as qspan:
                    observed = self._quantum(state, detector, qspan)
                    if ladder is not None:
                        if observed:
                            ladder.note_healthy_quantum()
                        else:
                            ladder.note_fault()

            self._sync_clock(anchor)
            report = state.report(self.machine, state.reestimations)
            run_span.set_attribute("work_done", report.work_done)
            run_span.set_attribute("met_target", report.met_target)
            run_span.set_attribute("reestimations", state.reestimations)
            ob.metrics.set_gauge(
                "constraint_violation_ratio",
                max(0.0, 1.0 - report.work_done / state.work)
                if state.work > 0 else 0.0)

        if not report.met_target:
            logger.debug("performance demand missed",
                         extra={"fields": {"work_done": report.work_done,
                                           "work_target": state.work}})
        #: Exposed so phased runs can carry re-calibrated estimates forward.
        self.last_estimate = state.estimate
        return report

    def _quantum(self, state: RunState, detector: Optional[PhaseDetector],
                 span: Span) -> bool:
        """Execute one control quantum of ``state``.

        Returns False when a sensor fault lost the quantum's observation.
        """
        quantum = state.quantum
        step = min(quantum, state.time_left)
        slot = None if state.finished else self._next_slot(state)
        if slot is None or slot.config_index is None:
            state.idle(self.machine, step)
            span.set_attribute("idle", True)
            return True
        config_index = slot.config_index
        rates, powers = state.rates, state.powers
        # Respect the plan: the slow leg only gets its allotted share of
        # the remaining window (running it longer starves the fast leg
        # and misses the work target).
        step = min(step, max(slot.duration, 1e-3 * quantum))

        # Trim the step so the work is not overshot at high power: once
        # the remaining work needs less than a quantum at this
        # configuration's (believed) rate, run only that long.
        believed_rate = float(rates[config_index])
        if believed_rate > 0:
            step = min(step, max(state.work_left / believed_rate, 1e-6))
        self.machine.apply(self.space[config_index])
        try:
            measurement = self.machine.run_for(step)
        except SensorReadError:
            # The quantum ran (the machine advanced and drew power) but
            # its observation was lost: charge the time, credit no work
            # (conservative — unobserved progress is re-done), and record
            # the model's believed behaviour in the traces.
            state.advance(step, 0.0, float(powers[config_index]),
                          float(rates[config_index]))
            span.set_attribute("sensor_dropout", True)
            get_observability().metrics.inc("fault_lost_quanta_total")
            return False
        state.advance(step, measurement.heartbeats, measurement.system_power,
                      measurement.rate)
        span.set_attribute("config_index", int(config_index))
        span.set_attribute("step", step)
        span.set_attribute("measured_rate", measurement.rate)
        span.set_attribute("measured_power", measurement.system_power)

        # The model's expectation before feedback, for phase detection.
        expected = float(rates[config_index])
        deviation = (abs(measurement.rate - expected) / expected
                     if expected > 0 else 0.0)
        # Deviation at a previously *measured* configuration is evidence
        # of a behavioural change; at a first visit it may just be
        # estimation error, so the bar is higher there.
        limit = (detector.threshold
                 if detector is not None and config_index in state.visited
                 else NOVEL_CONFIG_TOLERANCE)
        watching = state.adapt and detector is not None
        if watching and deviation > limit:
            # Let the detector accumulate evidence instead of silently
            # absorbing the anomaly into one entry.
            if detector.update(expected, measurement.rate, threshold=limit):
                state.adopt(self._recalibrate(state.profile, state.estimate))
                state.reestimations += 1
                span.set_attribute("recalibrated", True)
                get_observability().metrics.inc("reestimations_total")
                logger.info(
                    "phase change: re-calibrated inline",
                    extra={"fields": {
                        "quantum": state.quantum_index,
                        "deviation": deviation,
                        "reestimations": state.reestimations}})
                # Re-calibration consumed wall-clock time, but the
                # application kept making progress while sampled.
                state.time_left -= state.estimate.sampling_time
                state.work_left -= state.estimate.sampling_heartbeats
            return True
        if watching:
            detector.update(expected, measurement.rate, threshold=limit)
        state.visited.add(config_index)
        if (abs(measurement.rate - rates[config_index])
                > 0.02 * rates[config_index]
                or abs(measurement.system_power - powers[config_index])
                > 0.02 * powers[config_index]):
            # Routine feedback: fold the measurement into this
            # configuration's entry (gradient-ascent correction).
            state.correct(config_index, measurement.rate,
                          measurement.system_power)
        return True

    def _next_slot(self, state: RunState) -> Optional[Slot]:
        """Pick the next residency (configuration + time share).

        Solves the remaining-horizon LP and executes its *slower* slot
        first (the faster slot retains flexibility for later quanta),
        bounded by that slot's planned duration.  When the demand
        exceeds the estimated capacity — the model was too optimistic or
        time was lost — fall back to the estimated fastest
        configuration, which is the "gradient ascent until the demand is
        met" behaviour the paper describes.
        """
        minimizer = state.minimizer
        work_left, time_left = state.work_left, state.time_left
        required = work_left / time_left
        if required > minimizer.max_rate:
            return Slot(int(np.argmax(minimizer.rates)), time_left)
        # Plan for slightly more work than strictly remains: estimated
        # rates on the frontier's legs are optimistic on average (the
        # winner's curse of choosing argmax-looking configurations), and
        # the margin keeps mid-course shortfalls recoverable.
        padded_work = min(work_left * (1.0 + SAFETY_MARGIN),
                          minimizer.max_rate * time_left)
        schedule = minimizer.solve(padded_work, time_left)
        # Execute the work-bearing legs before the idle leg: under
        # deadline-energy accounting the order does not change the
        # energy, and finishing the work early is robust to noise and
        # quantum granularity.  Among work legs, the slower (cheaper)
        # one runs first.
        for slot in schedule:
            if slot.config_index is not None:
                return slot
        return None

    def _recalibrate(self, profile: ApplicationProfile,
                     previous: TradeoffEstimate) -> TradeoffEstimate:
        """Inline re-calibration after a detected phase change.

        Uses short sampling windows to bound the disruption.  If the
        estimator cannot refit (e.g. online regression with too few
        samples), the previous estimate is kept.
        """
        try:
            return self.calibrate(profile, sample_window=0.25)
        except InsufficientSamplesError:
            return previous

    def _attempt_promotion(self, profile: ApplicationProfile
                           ) -> Tuple[Optional[TradeoffEstimate], float]:
        """Probe one ladder rung up with a short re-calibration.

        Returns ``(estimate, elapsed)``: the probe calibration's
        estimate (at whatever tier it landed — ``None`` when even
        sampling failed) and the simulated seconds the probe consumed.
        The breaker records the outcome either way, so a failed probe
        buys the faulty tier another full cooldown.
        """
        ladder = self.ladder
        clock_before = self.machine.clock
        ladder.begin_probe()
        try:
            estimate = self.calibrate(profile, sample_window=0.25)
        except InsufficientSamplesError:
            ladder.record_failed_probe()
            return None, self.machine.clock - clock_before
        if ladder.probe_origin is not None:
            ladder.record_promotion(ladder.tier_index)
        # else: the calibration fell back, and demote_to ended the probe
        # (a failed probe, or one demotion below the rung it left).
        return estimate, self.machine.clock - clock_before

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------
    def _checkpoint(self, state: RunState,
                    detector: Optional[PhaseDetector]) -> dict:
        """A JSON-ready snapshot of the run at a quantum boundary.

        The run state plus every random stream the remaining quanta will
        consume, so :meth:`resume` replays them bit-equal to the
        uninterrupted run.  A thermally-modelled machine refuses
        (:meth:`Machine.snapshot`).
        """
        payload = state.to_payload()
        payload["machine"] = self.machine.snapshot(self.space)
        payload["sampler_rng"] = _rng_state(self.sampler)
        payload["estimator_rng"] = _rng_state(self.estimator)
        payload["detector"] = (detector.snapshot()
                               if detector is not None else None)
        payload["ladder"] = (self._ladder.snapshot()
                             if self._ladder is not None else None)
        return payload

    def resume(self, state: dict, profile: ApplicationProfile,
               detector: Optional[PhaseDetector] = None,
               checkpointer=None) -> RunReport:
        """Continue a checkpointed run to completion.

        ``state`` is a payload from :meth:`~repro.runtime.persistence.
        CheckpointManager.load`.  The controller must be constructed the
        same way as the one that took the checkpoint (same machine
        platform, space, estimator); the random streams and loop state
        are restored exactly, so on a fault-free plan the resumed run's
        :class:`RunReport` is bit-equal to the uninterrupted run's.
        Raises :class:`CheckpointError` for a checkpoint of another
        application or another configuration space.
        """
        with self._obs_scope():
            run = RunState.from_payload(state, profile, len(self.space),
                                        self.machine.idle_power())
            self.machine.load(profile)
            self.machine.restore(state["machine"], self.space)
            _restore_rng(self.sampler, state.get("sampler_rng"))
            _restore_rng(self.estimator, state.get("estimator_rng"))
            if state.get("ladder") is not None:
                self.ladder.restore(state["ladder"])
            snapshot = state.get("detector")
            if snapshot is not None:
                detector = detector or PhaseDetector(snapshot["threshold"],
                                                     snapshot["patience"])
                detector.restore(snapshot)
            return self._drive(run, detector, checkpointer)

    # ------------------------------------------------------------------
    # Phased workloads (Section 6.6)
    # ------------------------------------------------------------------
    def run_phased(self, workload: PhasedWorkload,
                   estimate: Optional[TradeoffEstimate] = None,
                   adapt: bool = True) -> List[RunReport]:
        """Execute a phased workload, one report per phase.

        The first phase's profile is used for initial calibration when
        no estimate is supplied.  Later phases inherit the most recent
        estimate; with ``adapt=True`` the detector will notice the model
        mismatch and trigger re-calibration (the Section 6.6 scenario).
        """
        if estimate is None:
            estimate = self.calibrate(workload.phases[0].profile)
        detector = PhaseDetector() if adapt else None
        reports: List[RunReport] = []
        for phase in workload:
            report = self.run(phase.profile, work=float(phase.frames),
                              deadline=phase.duration, estimate=estimate,
                              adapt=adapt, detector=detector)
            estimate = self.last_estimate
            reports.append(report)
        return reports
