"""The node coordinator: admit, calibrate, allocate, execute, adapt.

:class:`ClusterCoordinator` runs N tenant applications concurrently on
one simulated node under a global power cap.  Its epoch loop composes
the layers the single-application runtime already provides:

1. **Admit / depart** — tenants join at their arrival time and leave at
   their deadline (or on request).  Every membership change
   re-partitions the node (:class:`~repro.cluster.partition.
   PartitionedMachine`) and re-calibrates the survivors, whose share of
   the floor power and whose contention environment both changed.
2. **Calibrate** — each tenant's curve is estimated over its partition
   by any registered estimator (``"leo"``, ``"online"``, ``"offline"``,
   ``"knn"``, or a :class:`~repro.service.client.RemoteEstimator`
   instance leaning on the shared service's warm priors).  Calibration
   is staggered — one tenant samples while the others idle — so it is
   the one activity *outside* the per-epoch cap guarantee; execution
   epochs are guarded by construction (below).
3. **Allocate** — the allocator divides the cap into per-tenant
   instantaneous budgets from the stacked learned curves.  The
   coordinator enforces a budget by *filtering* the tenant's
   configuration space to configurations whose estimated power fits,
   so every configuration a controller can apply — including during
   inline re-calibration — keeps the summed estimated draw under the
   cap.  Allocations are sticky: they are recomputed only when a
   tenant arrives or departs, a phase change fires, or a tenant's
   demand drifts beyond its granted rate.
4. **Execute** — each tenant runs one epoch of its deadline through an
   unmodified :class:`~repro.runtime.controller.RuntimeController`
   (or a race-to-idle loop under the ``"race"`` policy), with measured
   feedback and, under the ``"joint"`` policy, phase detection and
   inline re-calibration within the budget-filtered space.

Everything is observable: nested ``cluster.run`` → ``cluster.epoch`` →
``cluster.calibrate`` / ``cluster.allocate`` / ``cluster.tenant_epoch``
spans, and ``cluster_*`` counters/gauges/histograms through
:mod:`repro.obs` (see docs/CLUSTER.md for the reference).
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.allocator import (
    Allocation,
    PowerCapAllocator,
    StaticAllocator,
    TenantAllocation,
    TenantDemand,
)
from repro.cluster.partition import (
    PartitionedMachine,
    TenantMachine,
    TenantSpace,
)
from repro.errors import InsufficientSamplesError, SensorReadError
from repro.estimators.base import Estimator
from repro.estimators.registry import create_estimator
from repro.faults.context import get_injector
from repro.obs import Observability, get_observability, labeled
from repro.obs import use as use_observability
from repro.runtime.resilience import RECOVERABLE_EXCEPTIONS
from repro.platform.config_space import ConfigurationSpace
from repro.runtime.controller import (
    QUANTUM_FRACTION,
    RunWindow,
    RuntimeController,
    TradeoffEstimate,
)
from repro.runtime.phase_detector import PhaseDetector
from repro.runtime.sampling import RandomSampler, cell_seed
from repro.workloads.phases import PhasedWorkload
from repro.workloads.profile import ApplicationProfile

logger = logging.getLogger(__name__)

#: Allocation policies the coordinator implements.
POLICIES = ("joint", "static", "race")

#: Relative demand drift that triggers re-allocation under sticky budgets.
_DRIFT_TOLERANCE = 0.02
#: Epoch length as a fraction of the shortest live tenant's deadline.
EPOCH_FRACTION = 0.1
#: Seconds per calibration sample.
SAMPLE_WINDOW = 0.5


@dataclasses.dataclass
class Tenant:
    """One application requesting admission to the shared node.

    Attributes:
        name: Unique tenant identifier (also its partition name).
        workload: What it runs — a fixed :class:`ApplicationProfile` or
            a :class:`PhasedWorkload` whose behaviour changes over time.
        work: Heartbeats to complete between arrival and deadline.
        deadline: Seconds after arrival by which the work is due — the
            tenant's performance constraint.
        cores: Physical cores requested; ``None`` shares the cores left
            over after explicit requests equally.
        threads: Hardware thread contexts requested; ``None`` takes
            both hyperthread contexts of every owned core.
        estimator: Registry name (e.g. ``"leo"``) or a ready
            :class:`~repro.estimators.base.Estimator` instance (e.g. a
            ``RemoteEstimator`` bound to the shared service).
        prior_rates: Optional ``(M-1, n)`` offline rate table over the
            *node-wide* space; sliced to the tenant's partition.
        prior_powers: Optional matching power table.
        arrival: Node time at which the tenant arrives (0 = at start).
    """

    name: str
    workload: Union[ApplicationProfile, PhasedWorkload]
    work: float
    deadline: float
    cores: Optional[int] = None
    threads: Optional[int] = None
    estimator: Union[str, Estimator] = "leo"
    prior_rates: Optional[np.ndarray] = None
    prior_powers: Optional[np.ndarray] = None
    arrival: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"tenant name must be a non-empty string, "
                             f"got {self.name!r}")
        if self.work <= 0:
            raise ValueError(f"tenant {self.name!r}: work must be positive, "
                             f"got {self.work}")
        if self.deadline <= 0:
            raise ValueError(f"tenant {self.name!r}: deadline must be "
                             f"positive, got {self.deadline}")
        if self.cores is not None and self.cores < 1:
            raise ValueError(f"tenant {self.name!r}: cores must be >= 1 or "
                             f"None, got {self.cores}")
        if self.arrival < 0:
            raise ValueError(f"tenant {self.name!r}: arrival must be >= 0, "
                             f"got {self.arrival}")

    def profile_at(self, elapsed: float) -> ApplicationProfile:
        """The behaviour ``elapsed`` seconds after this tenant arrived."""
        if isinstance(self.workload, ApplicationProfile):
            return self.workload
        boundary = 0.0
        for phase in self.workload.phases:
            boundary += phase.duration
            if elapsed < boundary:
                return phase.profile
        return self.workload.phases[-1].profile


@dataclasses.dataclass
class TenantReport:
    """Outcome of one tenant's stay on the node.

    Attributes:
        name: Tenant identifier.
        energy: Joules charged to the tenant's view (its fair share of
            shared draws plus everything it caused), calibration
            included.
        work_done: Heartbeats completed by departure.
        work_target: Heartbeats demanded.
        deadline: The tenant's deadline (seconds after arrival).
        met_deadline: Whether the demand was met by the deadline
            (within the runtime's 1 % measurement tolerance).
        reestimations: Phase-change re-calibrations fired inline.
        calibrations: Total calibrations (initial + membership-driven +
            inline).
        epochs: Execution epochs the tenant participated in.
        budget_trace: Power budget granted in each epoch (W).
    """

    name: str
    energy: float
    work_done: float
    work_target: float
    deadline: float
    met_deadline: bool
    reestimations: int
    calibrations: int
    epochs: int
    budget_trace: List[float]


@dataclasses.dataclass
class ClusterReport:
    """Outcome of one coordinated run.

    Attributes:
        tenants: Per-tenant reports, in admission order.
        cap_watts: The global power cap in force.
        policy: Allocation policy used.
        epochs: Execution epochs run.
        epoch_peak_watts: Conservative node peak power of each epoch —
            the sum over tenants of each tenant's worst quantum, an
            upper bound on the true instantaneous peak.
        reallocations: Times the allocator was (re-)invoked.
        node_energy: Total node energy (J) across live and departed
            tenants, calibration included.
    """

    tenants: Dict[str, TenantReport]
    cap_watts: float
    policy: str
    epochs: int
    epoch_peak_watts: List[float]
    reallocations: int
    node_energy: float

    @property
    def cap_respected(self) -> bool:
        """Whether every execution epoch stayed under the cap."""
        return all(p <= self.cap_watts * (1.0 + 1e-6)
                   for p in self.epoch_peak_watts)

    @property
    def all_deadlines_met(self) -> bool:
        """Whether every tenant met its performance constraint."""
        return all(t.met_deadline for t in self.tenants.values())

    @property
    def total_energy(self) -> float:
        """Alias for :attr:`node_energy` (the experiment's objective)."""
        return self.node_energy


@dataclasses.dataclass
class _TenantState:
    """Coordinator-internal bookkeeping for one live tenant."""

    tenant: Tenant
    estimator_obj: Estimator
    remaining_work: float
    machine: Optional[TenantMachine] = None
    tspace: Optional[TenantSpace] = None
    admit_clock: Optional[float] = None
    estimate: Optional[TradeoffEstimate] = None
    detector: PhaseDetector = dataclasses.field(default_factory=PhaseDetector)
    prior_rates_t: Optional[np.ndarray] = None
    prior_powers_t: Optional[np.ndarray] = None
    budget_trace: List[float] = dataclasses.field(default_factory=list)
    reestimations: int = 0
    calibrations: int = 0
    epochs: int = 0
    phase_fired: bool = False

    @property
    def elapsed(self) -> float:
        return self.machine.clock - self.admit_clock

    @property
    def remaining_time(self) -> float:
        return self.tenant.deadline - self.elapsed


class ClusterCoordinator:
    """Co-schedules tenants on one node under a global power cap.

    Args:
        space: Node-wide configuration space tenants choose from.
        cap_watts: Global instantaneous power cap (W) for the node.
        policy: ``"joint"`` (water-filled budgets, phase adaptation),
            ``"static"`` (equal budgets, no adaptation — the
            per-app-static-cap baseline), or ``"race"`` (equal budgets,
            race-to-idle within each — the heuristic baseline).
        sample_count: Configurations measured per calibration.
        cap_margin: Fraction of the cap withheld from the allocator as
            headroom for estimation error and measurement noise.
        seed: Base seed; all machine noise and sampling streams derive
            from it stably, so runs are reproducible.
        observability: Optional tracer/metrics bundle installed for the
            whole run; ``None`` inherits the ambient context.
    """

    def __init__(self, space: ConfigurationSpace, cap_watts: float,
                 policy: str = "joint",
                 sample_count: int = 12,
                 cap_margin: float = 0.05,
                 seed: int = 0,
                 observability: Optional[Observability] = None,
                 clock=None) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, "
                             f"got {policy!r}")
        if cap_watts <= 0:
            raise ValueError(f"cap_watts must be positive, got {cap_watts}")
        self.space = space
        self.cap_watts = float(cap_watts)
        self.policy = policy
        self.sample_count = int(sample_count)
        self.seed = int(seed)
        self.observability = observability
        #: Optional :class:`~repro.clock.Clock`.  A *virtual* clock is
        #: advanced in lockstep with the node's simulated clock at every
        #: epoch boundary, and fault positions are reported in *its*
        #: timeline — so a soak harness phasing faults across simulated
        #: days sees cluster epochs land inside the right windows.
        #: ``None`` (the default) changes nothing.
        self.clock = clock
        allocator_cls = (PowerCapAllocator if policy == "joint"
                         else StaticAllocator)
        self.allocator = allocator_cls(cap_watts, margin=cap_margin)
        self.cap_margin = float(cap_margin)
        self._allocator_cls = allocator_cls
        self._cap_scale = 1.0
        self.node: Optional[PartitionedMachine] = None
        self._pending: List[Tenant] = []
        self._departures: set = set()
        self._states: Dict[str, _TenantState] = {}
        self._estimators: Dict[str, Estimator] = {}

    # ------------------------------------------------------------------
    # Membership API
    # ------------------------------------------------------------------
    def admit(self, tenant: Tenant) -> None:
        """Register a tenant; it joins at ``tenant.arrival`` node time."""
        known = set(self._states) | {t.name for t in self._pending}
        if tenant.name in known:
            raise ValueError(f"tenant {tenant.name!r} already admitted")
        estimator = (tenant.estimator
                     if isinstance(tenant.estimator, Estimator)
                     else create_estimator(tenant.estimator))
        self._pending.append(tenant)
        self._estimators[tenant.name] = estimator

    def depart(self, name: str) -> None:
        """Request a tenant's removal at the next epoch boundary."""
        if name not in self._states and all(t.name != name
                                            for t in self._pending):
            raise KeyError(f"unknown tenant {name!r}")
        self._pending = [t for t in self._pending if t.name != name]
        if name in self._states:
            self._departures.add(name)

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------
    def run(self) -> ClusterReport:
        """Drive all admitted tenants to their deadlines; see module doc."""
        if not self._pending and not self._states:
            raise ValueError("no tenants admitted; call admit() first")
        scope = (use_observability(self.observability)
                 if self.observability is not None
                 else contextlib.nullcontext())
        with scope:
            return self._run()

    def _run(self) -> ClusterReport:
        ob = get_observability()
        injector = get_injector()
        reports: Dict[str, TenantReport] = {}
        epoch_peaks: List[float] = []
        reallocations = 0
        allocation: Optional[Allocation] = None
        realloc_next = True
        epoch = 0
        now = 0.0
        max_epochs = self._max_epochs()
        # Virtual-time coupling: node-local epoch time ``now`` maps onto
        # the attached virtual clock's timeline at a fixed origin, so
        # fault positions and clock advancement agree to the epoch.
        vclock = (self.clock if self.clock is not None
                  and self.clock.is_virtual else None)
        v_origin = vclock.now() if vclock is not None else 0.0

        def fault_pos(local: float) -> float:
            return v_origin + local if vclock is not None else local

        def sync_vclock(local: float) -> None:
            if vclock is not None:
                vclock.advance_to(v_origin + local)
        with ob.tracer.span("cluster.run", policy=self.policy,
                            cap_watts=self.cap_watts) as run_span:
            while True:
                # Fault-injection hook: a tenant crashes at an epoch
                # boundary — it departs like any other leaver (its
                # report records the incomplete work) and the node
                # repartitions around it.
                for spec in injector.fire("cluster.tenant",
                                          clock=fault_pos(now)):
                    if spec.kind != "tenant-crash" or not self._states:
                        continue
                    victim = (spec.target
                              if spec.target in self._states
                              else sorted(self._states)[0])
                    self._departures.add(victim)
                    ob.metrics.inc("cluster_tenant_crashes_total")
                    logger.warning("tenant crashed",
                                   extra={"fields": {"tenant": victim}})
                changed = self._apply_membership(now, reports, ob)
                if not self._states:
                    if self._pending:
                        now = min(t.arrival for t in self._pending)
                        sync_vclock(now)
                        continue
                    break
                if changed:
                    for state in self._states.values():
                        self._calibrate(state, ob)
                    self.node.sync_clocks()
                    allocation = None
                    realloc_next = True
                now = self.node.node_clock
                sync_vclock(now)

                # Fault-injection hook: a cap transient (facility
                # brown-out) scales the node cap for a window.  Entering
                # or leaving the window rebuilds the allocator at the
                # effective cap and forces a re-allocation.
                scale = 1.0
                for spec in injector.active("cluster.cap",
                                            clock=fault_pos(now)):
                    scale = min(scale, max(spec.magnitude, 0.05))
                if scale != self._cap_scale:
                    self._cap_scale = scale
                    self.allocator = self._allocator_cls(
                        self.cap_watts * scale, margin=self.cap_margin)
                    realloc_next = True
                    if scale < 1.0:
                        ob.metrics.inc("cluster_cap_transients_total")
                    logger.warning(
                        "power cap scaled",
                        extra={"fields": {"scale": scale,
                                          "cap_watts":
                                          self.cap_watts * scale}})

                demands = [self._demand(state)
                           for state in self._states.values()]
                if allocation is not None and not realloc_next:
                    realloc_next = self._demand_drifted(allocation, demands)
                if realloc_next or allocation is None:
                    with ob.tracer.span("cluster.allocate",
                                        tenants=len(demands)) as aspan:
                        allocation = self.allocator.allocate(demands)
                        aspan.set_attribute("mode", allocation.mode)
                        aspan.set_attribute("total_budget_watts",
                                            allocation.total_budget_watts)
                    reallocations += 1
                    ob.metrics.inc("cluster_reallocations_total")
                    realloc_next = False
                    if not allocation.all_feasible:
                        logger.info(
                            "allocation degraded",
                            extra={"fields": {
                                "mode": allocation.mode,
                                "infeasible": [t.name for t in
                                               allocation.tenants
                                               if not t.feasible]}})

                epoch += 1
                step = self._epoch_step()
                with ob.tracer.span("cluster.epoch", index=epoch,
                                    step=step) as espan:
                    # Contention depends on what everyone runs this
                    # epoch; refresh before any tenant executes so the
                    # epoch is order-independent.
                    for name, state in self._states.items():
                        self.node.set_profile(
                            name, state.tenant.profile_at(state.elapsed))
                    peak = 0.0
                    for name, state in self._states.items():
                        try:
                            peak += self._run_tenant_epoch(
                                state, allocation.tenant(name), step, ob)
                        except RECOVERABLE_EXCEPTIONS as exc:
                            # The tenant's epoch failed mid-flight: it
                            # forfeits this epoch (sync_clocks levels
                            # its clock) but stays admitted with its
                            # previous estimate, so one faulty epoch
                            # never takes down the node.
                            peak += state.machine.idle_power()
                            ob.metrics.inc("cluster_epoch_faults_total")
                            logger.warning(
                                "tenant epoch fault; idling tenant",
                                extra={"fields": {
                                    "tenant": name,
                                    "error": f"{type(exc).__name__}: "
                                             f"{exc}"}})
                    self.node.sync_clocks()
                    espan.set_attribute("peak_watts", peak)
                epoch_peaks.append(peak)
                ob.metrics.inc("cluster_epochs_total")
                ob.metrics.set_gauge("cluster_live_tenants",
                                     len(self._states))
                ob.metrics.set_gauge("cluster_power_budget_watts",
                                     allocation.total_budget_watts)
                ob.metrics.set_gauge("cluster_power_peak_watts", peak)
                ob.metrics.observe("cluster_epoch_peak_watts", peak)
                if peak > self.cap_watts * (1.0 + 1e-6):
                    ob.metrics.inc("cluster_cap_violations_total")
                    ob.slo.record_event("cap-violation")
                    logger.warning("power cap exceeded",
                                   extra={"fields": {"epoch": epoch,
                                                     "peak_watts": peak}})

                if any(state.phase_fired
                       for state in self._states.values()):
                    realloc_next = True
                    for state in self._states.values():
                        state.phase_fired = False

                now = self.node.node_clock
                sync_vclock(now)
                for name, state in self._states.items():
                    if state.remaining_time <= 1e-6 * state.tenant.deadline:
                        self._departures.add(name)
                if epoch > max_epochs:
                    raise RuntimeError(
                        f"cluster run exceeded {max_epochs} epochs without "
                        f"retiring all tenants (a deadline is unreachable)")
            run_span.set_attribute("epochs", epoch)
            run_span.set_attribute("reallocations", reallocations)
        return ClusterReport(
            tenants=reports, cap_watts=self.cap_watts, policy=self.policy,
            epochs=epoch, epoch_peak_watts=epoch_peaks,
            reallocations=reallocations,
            node_energy=self.node.node_energy if self.node else 0.0)

    def _max_epochs(self) -> int:
        horizon = sum(t.arrival + t.deadline for t in self._pending) + sum(
            s.tenant.deadline for s in self._states.values())
        shortest = min([t.deadline for t in self._pending]
                       + [s.tenant.deadline for s in self._states.values()])
        return 16 + 4 * int(math.ceil(
            horizon / max(EPOCH_FRACTION * shortest, 1e-9)))

    # ------------------------------------------------------------------
    # Membership mechanics
    # ------------------------------------------------------------------
    def _apply_membership(self, now: float,
                          reports: Dict[str, TenantReport],
                          ob) -> bool:
        changed = False
        for name in sorted(self._departures):
            state = self._states.pop(name, None)
            if state is not None:
                reports[name] = self._finalize(state, ob)
                changed = True
                ob.metrics.inc("cluster_departures_total")
        self._departures.clear()
        due = [t for t in self._pending if t.arrival <= now + 1e-9]
        for tenant in due:
            self._pending.remove(tenant)
            self._states[tenant.name] = _TenantState(
                tenant=tenant,
                estimator_obj=self._estimators[tenant.name],
                remaining_work=float(tenant.work))
            changed = True
            ob.metrics.inc("cluster_admissions_total")
        if not changed:
            return False

        if self.node is None:
            self.node = PartitionedMachine(self.space, [], seed=self.seed)
        requests = self._partition_requests()
        with ob.tracer.span("cluster.repartition",
                            tenants=len(requests)):
            self.node.repartition(requests, clock=now)
        for name, state in self._states.items():
            state.machine = self.node.view(name)
            state.tspace = self.node.space_for(name)
            if state.admit_clock is None:
                state.admit_clock = state.machine.clock
            tenant = state.tenant
            state.prior_rates_t = (state.tspace.slice_table(tenant.prior_rates)
                                   if tenant.prior_rates is not None
                                   else None)
            state.prior_powers_t = (state.tspace.slice_table(tenant.prior_powers)
                                    if tenant.prior_powers is not None
                                    else None)
            # The partition, floor share, and co-runners all changed:
            # the old estimate no longer describes this view.
            state.estimate = None
            self.node.set_profile(name, tenant.profile_at(
                max(state.elapsed, 0.0)))
        return True

    def _partition_requests(self) -> List[Tuple[str, int, int]]:
        explicit = sum(s.tenant.cores for s in self._states.values()
                       if s.tenant.cores is not None)
        autos = [s.tenant.name for s in self._states.values()
                 if s.tenant.cores is None]
        topology = self.space.topology
        leftover = topology.total_cores - explicit
        if autos and leftover < len(autos):
            raise ValueError(
                f"cannot fit tenants: {explicit} cores claimed explicitly "
                f"leave {leftover} for {len(autos)} unsized tenants")
        share, spare = (divmod(leftover, len(autos)) if autos else (0, 0))
        requests = []
        auto_index = 0
        for state in self._states.values():
            tenant = state.tenant
            if tenant.cores is not None:
                cores = tenant.cores
            else:
                cores = share + (1 if auto_index < spare else 0)
                auto_index += 1
            threads = (tenant.threads if tenant.threads is not None
                       else topology.threads_per_core * cores)
            requests.append((tenant.name, cores, threads))
        return requests

    def _finalize(self, state: _TenantState, ob) -> TenantReport:
        tenant = state.tenant
        work_done = tenant.work - state.remaining_work
        met = work_done >= 0.99 * tenant.work
        # Per-tenant label dimension on the outcome counters: a
        # fleet-wide merge can still answer "which tenant burned the
        # deadline budget" (parse_labeled recovers the tenant name).
        ob.metrics.inc(labeled("cluster_deadline_met_total"
                               if met else "cluster_deadline_missed_total",
                               tenant=tenant.name))
        ob.metrics.inc(labeled("cluster_tenant_energy_joules_total",
                               tenant=tenant.name),
                       state.machine.total_energy if state.machine else 0.0)
        ob.slo.record_deadline(met)
        return TenantReport(
            name=tenant.name,
            energy=state.machine.total_energy if state.machine else 0.0,
            work_done=work_done, work_target=tenant.work,
            deadline=tenant.deadline,
            met_deadline=met,
            reestimations=state.reestimations,
            calibrations=state.calibrations,
            epochs=state.epochs,
            budget_trace=list(state.budget_trace))

    # ------------------------------------------------------------------
    # Calibration and demands
    # ------------------------------------------------------------------
    def _controller(self, state: _TenantState, space: ConfigurationSpace,
                    prior_rates: Optional[np.ndarray],
                    prior_powers: Optional[np.ndarray],
                    stream: str, index: int) -> RuntimeController:
        """A controller for one tenant over ``space``, sampling from the
        ``stream``/``index`` cell of the coordinator's seed."""
        return RuntimeController(
            machine=state.machine, space=space,
            estimator=state.estimator_obj,
            prior_rates=prior_rates, prior_powers=prior_powers,
            sampler=RandomSampler(seed=cell_seed(
                self.seed, state.tenant.name, stream, index)),
            sample_count=min(self.sample_count, len(space)),
            sample_window=SAMPLE_WINDOW)

    def _calibrate(self, state: _TenantState, ob,
                   _retry: bool = True) -> None:
        tenant = state.tenant
        profile = tenant.profile_at(max(state.elapsed, 0.0))
        state.calibrations += 1
        controller = self._controller(
            state, state.tspace.space, state.prior_rates_t,
            state.prior_powers_t, "calibrate", state.calibrations)
        with ob.tracer.span("cluster.calibrate", tenant=tenant.name,
                            estimator=state.estimator_obj.name):
            try:
                estimate = controller.calibrate(profile)
            except InsufficientSamplesError as exc:
                # Estimator degradation is handled inside the
                # controller's ladder; reaching here means even the
                # samples were lost (e.g. total sensor dropout).  Keep
                # a previous estimate when there is one, retry once
                # with a fresh sampler stream otherwise, and then fall
                # back to the prior rows' mean over this view (the
                # offline estimate).  Only a tenant without priors
                # still raises.
                ob.metrics.inc("cluster_calibration_faults_total")
                logger.warning(
                    "tenant calibration failed",
                    extra={"fields": {"tenant": tenant.name,
                                      "error": str(exc)}})
                if state.estimate is not None:
                    return
                if _retry:
                    self._calibrate(state, ob, _retry=False)
                    return
                if state.prior_rates_t is None or state.prior_powers_t is None:
                    raise
                state.estimate = TradeoffEstimate(
                    rates=state.prior_rates_t.mean(axis=0),
                    powers=state.prior_powers_t.mean(axis=0),
                    estimator_name="offline")
                return
        state.estimate = estimate
        # The application progresses while being sampled.
        state.remaining_work = max(
            state.remaining_work - estimate.sampling_heartbeats, 0.0)
        ob.metrics.inc("cluster_calibrations_total")

    def _demand(self, state: _TenantState) -> TenantDemand:
        remaining_time = max(state.remaining_time, 1e-9)
        required = max(state.remaining_work, 0.0) / remaining_time
        return TenantDemand(
            name=state.tenant.name,
            rates=state.estimate.rates, powers=state.estimate.powers,
            idle_power=state.machine.idle_power(),
            required_rate=required)

    @staticmethod
    def _demand_drifted(allocation: Allocation,
                        demands: Sequence[TenantDemand]) -> bool:
        for demand in demands:
            granted = allocation.tenant(demand.name)
            if (demand.required_rate
                    > granted.target_rate * (1.0 + _DRIFT_TOLERANCE)):
                return True
        return False

    def _epoch_step(self) -> float:
        base = EPOCH_FRACTION * min(
            s.tenant.deadline for s in self._states.values())
        remaining = [s.remaining_time for s in self._states.values()
                     if s.remaining_time > 1e-9]
        step = min([base] + remaining)
        now = self.node.node_clock
        for tenant in self._pending:
            if tenant.arrival > now + 1e-9:
                step = min(step, tenant.arrival - now)
        return max(step, 1e-6)

    # ------------------------------------------------------------------
    # One tenant, one epoch
    # ------------------------------------------------------------------
    def _affordable_view(self, state: _TenantState, budget: float):
        """The budget-filtered space/estimate/priors for one epoch.

        Filtering is the cap-enforcement mechanism: a controller over
        the filtered space can only apply configurations whose
        estimated power fits the budget.
        """
        estimate = state.estimate
        mask = estimate.powers <= budget * (1.0 + 1e-9)
        if not mask.any():
            # Degenerate budget (proportional mode can pinch hard):
            # keep the single cheapest configuration runnable.
            mask = np.zeros(estimate.powers.size, dtype=bool)
            mask[int(np.argmin(estimate.powers))] = True
        idx = np.flatnonzero(mask)
        fspace = state.tspace.space.subspace([int(i) for i in idx])
        festimate = TradeoffEstimate(
            rates=estimate.rates[idx], powers=estimate.powers[idx],
            estimator_name=estimate.estimator_name)
        prior_r = (state.prior_rates_t[:, idx]
                   if state.prior_rates_t is not None else None)
        prior_p = (state.prior_powers_t[:, idx]
                   if state.prior_powers_t is not None else None)
        return fspace, festimate, prior_r, prior_p, idx

    def _run_tenant_epoch(self, state: _TenantState,
                          granted: TenantAllocation, step: float,
                          ob) -> float:
        """Run one tenant for one epoch; returns its peak draw (W)."""
        budget = granted.budget_watts
        state.budget_trace.append(budget)
        state.epochs += 1
        ob.metrics.inc(labeled("cluster_tenant_epochs_total",
                               tenant=state.tenant.name))
        ob.metrics.observe(labeled("cluster_tenant_budget_watts",
                                   tenant=state.tenant.name), budget)
        machine = state.machine
        if state.remaining_work <= 1e-9 * max(state.tenant.work, 1.0):
            machine.idle_for(step)
            return machine.idle_power()
        remaining_time = max(state.remaining_time, 1e-9)
        profile = state.tenant.profile_at(state.elapsed)
        work = state.remaining_work * min(step / remaining_time, 1.0)
        if remaining_time <= step * (1.0 + 1e-9):
            work = state.remaining_work

        fspace, festimate, prior_r, prior_p, idx = self._affordable_view(
            state, budget)
        with ob.tracer.span("cluster.tenant_epoch",
                            tenant=state.tenant.name,
                            budget_watts=budget, work=work,
                            step=step) as tspan:
            if self.policy == "race":
                peak, work_done = self._race_epoch(
                    machine, fspace, festimate, profile, work, step)
                state.remaining_work = max(
                    state.remaining_work - work_done, 0.0)
                tspan.set_attribute("work_done", work_done)
                return peak
            controller = self._controller(state, fspace, prior_r, prior_p,
                                          "inline", state.epochs)
            report = controller.run(
                profile, work, step, festimate,
                adapt=(self.policy == "joint"), detector=state.detector)
            tspan.set_attribute("work_done", report.work_done)
        state.remaining_work = max(
            state.remaining_work - report.work_done, 0.0)
        if report.reestimations:
            state.reestimations += report.reestimations
            state.calibrations += report.reestimations
            state.phase_fired = True
            # Fold the inline re-calibration (done on the filtered
            # space) back into the partition-wide estimate.
            last = controller.last_estimate
            rates = state.estimate.rates.copy()
            powers = state.estimate.powers.copy()
            rates[idx] = last.rates
            powers[idx] = last.powers
            state.estimate = TradeoffEstimate(
                rates=rates, powers=powers,
                estimator_name=state.estimate.estimator_name)
        if report.power_trace:
            return max(report.power_trace)
        return machine.idle_power()

    def _race_epoch(self, machine: TenantMachine,
                    fspace: ConfigurationSpace,
                    festimate: TradeoffEstimate,
                    profile: ApplicationProfile, work: float,
                    step: float) -> Tuple[float, float]:
        """Race-to-idle within the budget: fastest config, then idle.
        Returns the epoch's peak draw and the work it completed."""
        machine.load(profile)
        fastest = int(np.argmax(festimate.rates))
        config = fspace[fastest]
        believed_power = float(festimate.powers[fastest])
        quantum = max(step * QUANTUM_FRACTION, 1e-6)
        window = RunWindow.open(machine, work, step)
        while window.running:
            slice_s = min(quantum, window.time_left)
            if window.finished:
                window.idle(machine, slice_s)
                continue
            machine.apply(config)
            try:
                measurement = machine.run_for(slice_s)
            except SensorReadError:
                # Observation lost: credit no work, account the believed
                # draw so the epoch peak stays honest.
                window.advance(slice_s, 0.0, believed_power, 0.0)
            else:
                window.advance(slice_s, measurement.heartbeats,
                               measurement.system_power, measurement.rate)
        report = window.report(machine)
        return max(report.power_trace), report.work_done
