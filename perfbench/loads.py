"""The benchmark's three workloads.

Each workload is a closed loop driven from this one process: the next op
starts only when the previous one has returned.  Inputs derive from the
workload seed alone (``numpy.random.SeedSequence([seed, op_index])``),
so the same seed replays the same ops.

* ``leo_paper`` — the paper's loop in process on the 1024-config paper
  space: a fresh LEO controller per op calibrates one leave-one-out
  suite app from 20 samples, then runs it closed-loop at 50 %
  utilization.  EM and its linear algebra do nearly all the work.
* ``service_paper`` — paper-space requests that run no EM, sent over one
  connection to a separately started ``repro serve``: LP solves, warm
  registry reads, forced offline calibrations (registry writes) and
  offline estimates whose 24x1024 priors make the wire codec the cost.
* ``cluster_cap`` — one 16-tenant, 800 W-capped ``ClusterCoordinator``
  burst per op on the 32-config cores space: the controller's quantum
  loop, the machine simulation, LP/hull and the allocator.

A workload's op returns its raw outputs; :meth:`Workload.check` validates
them (raising :class:`CheckFailed`) and returns the op's quality values.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster import ClusterCoordinator, Tenant
from repro.core.accuracy import accuracy
from repro.estimators.base import EstimationProblem
from repro.estimators.registry import create_estimator
from repro.experiments import harness
from repro.optimize.lp import EnergyMinimizer
from repro.platform.machine import Machine
from repro.runtime.controller import RuntimeController
from repro.runtime.sampling import RandomSampler
from repro.service import (EstimationService, ServiceAddress, ServiceClient)
from repro.service.protocol import Request, ServiceError, encode_array

HERE = pathlib.Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An op returned output that fails the workload's correctness check."""


#: Independent random streams derived from one workload seed.
OPS, INPUTS, MIX, REPLAY, WARMUP, APPS = range(6)


def op_rng(seed: int, index: int, stream: int = OPS) -> np.random.Generator:
    """A random stream that is a pure function of (seed, stream, index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream,
                                                         index]))


def op_seed(seed: int, index: int, stream: int = OPS) -> int:
    return int(np.random.SeedSequence([seed, stream, index])
               .generate_state(1)[0])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _curve_ok(curve: np.ndarray, n: int) -> bool:
    curve = np.asarray(curve, dtype=float)
    return (curve.shape == (n,) and bool(np.all(np.isfinite(curve)))
            and bool(np.all(curve > 0)))


def _fresh_context(space_kind: str) -> harness.ExperimentContext:
    """Build the experiment context anew (bypassing the process cache),
    so every repeated set-up pays the full cost."""
    return harness.default_context.__wrapped__(space_kind, 0)


class Workload:
    """One named workload.  Subclasses fill in the hooks below."""

    name = ""
    #: Ops a run makes at least, whatever ``--seconds`` says.  It fixes
    #: the percentile ``op_s_tail`` reports (ten ops beyond it), and the
    #: quality metrics average over exactly these first ops.
    run_ops = 1
    #: How strongly the op time follows the speed probe's time: the
    #: log-log slope of one against the other, fitted from recorded runs
    #: (see README.md, "Speed normalization").
    speed_exponent = 1.0

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Untimed: inputs the load generator itself needs."""

    def setup(self, ledger_path: Optional[str] = None) -> None:
        """Timed set-up; ``ledger_path`` asks for a traced server."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo :meth:`setup` (stop any server and wait for it)."""

    def op(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, output: Any, seconds: float
              ) -> Dict[str, float]:
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Post-run checks; returns problems found."""
        return []

    def cpu_seconds(self) -> float:
        """CPU time of every process serving this workload."""
        return time.process_time()

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def server_records_path(self) -> Optional[str]:
        return None


# ----------------------------------------------------------------------
# leo_paper
# ----------------------------------------------------------------------
class LeoPaper(Workload):
    """The LEO loop: calibrate (two EM fits at n=1024), then run."""

    name = "leo_paper"
    #: One pass over the 25-app suite, so every seed times the same apps.
    run_ops = 25
    #: Large BLAS/LAPACK work slows about half as much as the probe.
    speed_exponent = 0.5
    UTILIZATION = 0.5
    SAMPLES = 20

    def setup(self, ledger_path: Optional[str] = None) -> None:
        ctx = _fresh_context("paper")
        idle = ctx.idle_power()
        self.ctx = ctx
        self.apps = {}
        for name in ctx.benchmark_names:
            view = ctx.dataset.leave_one_out(name)
            truth = ctx.truth.leave_one_out(name)
            self.apps[name] = (ctx.profile(name), view, truth,
                               EnergyMinimizer(truth.true_rates,
                                               truth.true_powers, idle))
        self.order = [ctx.benchmark_names[i] for i in
                      np.random.default_rng(self.seed).permutation(
                          len(ctx.benchmark_names))]

    def op(self, index: int) -> Any:
        app = self.order[index % len(self.order)]
        profile, view, truth, _ = self.apps[app]
        seed = op_seed(self.seed, index)
        controller = RuntimeController(
            machine=Machine(self.ctx.space.topology, seed=seed),
            space=self.ctx.space, estimator=create_estimator("leo"),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=RandomSampler(seed=seed), sample_count=self.SAMPLES)
        estimate = controller.calibrate(profile)
        work = (self.UTILIZATION * float(truth.true_rates.max())
                * harness.DEADLINE_SECONDS)
        report = controller.run(profile, work, harness.DEADLINE_SECONDS,
                                estimate)
        return app, work, estimate, report

    def check(self, index: int, output: Any, seconds: float
              ) -> Dict[str, float]:
        app, work, estimate, report = output
        _, _, truth, optimal = self.apps[app]
        n = len(self.ctx.space)
        _require(estimate.estimator_name == "leo",
                 f"{app}: calibration fell back to {estimate.estimator_name}")
        _require(_curve_ok(estimate.rates, n) and _curve_ok(estimate.powers, n),
                 f"{app}: estimated curves are not finite and positive")
        _require(report.energy > 0 and report.work_done > 0,
                 f"{app}: the run did no work")
        done = min(report.work_done / work, 1.0)
        return {
            "accuracy": 0.5 * (accuracy(estimate.rates, truth.true_rates)
                               + accuracy(estimate.powers, truth.true_powers)),
            "energy_norm": (report.energy / max(done, 1e-6)
                            / optimal.min_energy(work,
                                                 harness.DEADLINE_SECONDS)),
            "energy_j": report.energy,
            "deadline_met": float(report.met_target),
        }


# ----------------------------------------------------------------------
# service_paper
# ----------------------------------------------------------------------
class ServicePaper(Workload):
    """Paper-space request mix against a separately started server."""

    name = "service_paper"
    run_ops = 500
    #: Two processes of interpreter-bound work, plus the hand-offs
    #: between them, slow more than the probe.
    speed_exponent = 1.25
    #: One block of the request mix; each block of 20 ops is a seeded
    #: shuffle of it, so every run has the same proportions.  Small ops
    #: are the majority, so op_s_p50 follows the broker path while
    #: ops_per_s feels the codec-heavy estimates.
    BLOCK = (("optimize",) * 8 + ("calibrate_warm",) * 7
             + ("calibrate_forced",) * 3 + ("estimate",) * 2)
    #: Request deadline (s); deadline_met_frac counts replies inside it.
    DEADLINE_S = 5.0
    SAMPLES = 20
    #: Share of ops whose replies are replayed in process and compared
    #: bit for bit (plus the first op of every kind).
    REPLAY_SHARE = 0.05

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        self.replays: List[tuple] = []
        self.setup_problems: List[str] = []
        self._server_rss = 0.0
        self._ledger_path: Optional[str] = None
        self._setups = 0

    def prepare(self) -> None:
        ctx = harness.default_context("paper", 0)
        self.ctx = ctx
        self.idle = ctx.idle_power()
        self.names = ctx.benchmark_names
        self.truth = {}
        self.problems = {}
        for i, name in enumerate(self.names):
            truth = ctx.truth.leave_one_out(name)
            view = ctx.dataset.leave_one_out(name)
            self.truth[name] = (truth, EnergyMinimizer(
                truth.true_rates, truth.true_powers, self.idle))
            indices = harness.random_indices(len(ctx.space), self.SAMPLES,
                                             op_seed(self.seed, i, INPUTS))
            _, powers = harness.sample_target(
                ctx, ctx.profile(name), indices,
                seed_offset=op_seed(self.seed, i, INPUTS) % 10000)
            self.problems[name] = EstimationProblem(
                features=ctx.features, prior=view.prior_powers,
                observed_indices=indices, observed_values=powers)
        # The curves the optimize requests send: the same offline
        # calibration the server publishes while priming, computed here.
        service = EstimationService()
        self.curves = {}
        for name in self.names:
            reply = service.handle(Request("calibrate-report", {
                "app": name, "estimator": "offline", "force": True,
                "seed": 0, "samples": self.SAMPLES}))
            rates = np.asarray(reply["rates"], dtype=float)
            powers = np.asarray(reply["powers"], dtype=float)
            capacity = min(EnergyMinimizer(rates, powers, self.idle).max_rate,
                           self.truth[name][1].max_rate)
            self.curves[name] = (rates, powers, capacity)
        kinds = sorted(set(self.BLOCK))
        self.app_orders = {
            kind: [self.names[i] for i in op_rng(
                self.seed, k, APPS).permutation(len(self.names))]
            for k, kind in enumerate(kinds)}
        self.served = {kind: 0 for kind in kinds}
        self.plan: List[tuple] = []

    def _plan(self, index: int) -> tuple:
        """(kind, app) of op ``index``.  Each kind walks its own seeded
        permutation of the suite, so the quality ops cover every app
        evenly and the quality values barely depend on the seed."""
        while len(self.plan) <= index:
            block = len(self.plan) // len(self.BLOCK)
            order = op_rng(self.seed, block, MIX).permutation(
                len(self.BLOCK))
            for j in order:
                kind = self.BLOCK[j]
                apps = self.app_orders[kind]
                self.plan.append((kind, apps[self.served[kind] % len(apps)]))
                self.served[kind] += 1
        return self.plan[index]

    # -- server lifecycle -------------------------------------------------
    def setup(self, ledger_path: Optional[str] = None) -> None:
        self._setups += 1
        registry = self.workdir / f"registry-{self._setups}"
        src = HERE.parent / "src"
        # The thread pins run.py put in os.environ pass on to the server.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(HERE)] + ([env["PYTHONPATH"]]
                                     if env.get("PYTHONPATH") else []))
        serve_args = ["--listen", "127.0.0.1:0", "--registry", str(registry),
                      "--workers", "2"]
        if ledger_path is None:
            command = [sys.executable, "-m", "repro", "serve"] + serve_args
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       ledger_path] + serve_args
        self._ledger_path = ledger_path
        log = open(self.workdir / f"server-{self._setups}.log", "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, env=env,
            cwd=str(self.workdir))
        log.close()
        line = self.process.stdout.readline().decode().strip()
        if not line.startswith("SERVING "):
            self.teardown()
            raise RuntimeError(f"server did not start: {line!r}")
        address = ServiceAddress.parse(line.split(" ", 1)[1])
        # retries=0: every transport failure reaches the load loop, which
        # counts it and reconnects.
        self.client = ServiceClient(address, timeout=30.0, retries=0,
                                    default_deadline_s=self.DEADLINE_S,
                                    wire="auto")
        # Prime: one forced offline calibration per app builds the
        # server's context and publishes the curves the warm reads return.
        for name in self.names:
            reply = self.client.calibrate_report(
                name, estimator="offline", force=True, seed=0,
                samples=self.SAMPLES)
            rates, powers, _ = self.curves[name]
            if not (_bits_equal(rates, reply["rates"])
                    and _bits_equal(powers, reply["powers"])):
                self.setup_problems.append(
                    f"priming {name}: served curves differ from the "
                    "in-process calibration")

    def teardown(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        self._server_rss = max(self._server_rss,
                               _proc_status_mb(process.pid, "VmHWM"))
        try:
            if self.client is not None:
                self.client.shutdown()
        except (OSError, ServiceError):
            pass  # a server that already went away needs no shutdown
        self.client = None
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def server_records_path(self) -> Optional[str]:
        return self._ledger_path

    def cpu_seconds(self) -> float:
        server = (_proc_cpu_seconds(self.process.pid)
                  if self.process is not None else 0.0)
        return time.process_time() + server

    def peak_rss_mb(self) -> float:
        server = (_proc_status_mb(self.process.pid, "VmHWM")
                  if self.process is not None else self._server_rss)
        return super().peak_rss_mb() + server

    # -- ops ----------------------------------------------------------------
    def op(self, index: int) -> Any:
        if self.client is None:
            raise RuntimeError("no server")
        kind, app = self._plan(index)
        rng = op_rng(self.seed, index)
        if kind == "optimize":
            rates, powers, capacity = self.curves[app]
            # Demand a share of the capacity both the estimate and the
            # truth can meet, so the LP and its truth-optimal reference
            # are both feasible.
            work = (float(rng.uniform(0.2, 0.9)) * capacity
                    * harness.DEADLINE_SECONDS)
            args = (rates, powers, self.idle, work, harness.DEADLINE_SECONDS)
            reply = self.client.optimize(*args)
        elif kind == "estimate":
            args = (self.problems[app],)
            reply = self.client.estimate(args[0], estimator="offline")
        else:
            args = ()
            reply = self.client.calibrate_report(
                app, estimator="offline", seed=0, samples=self.SAMPLES,
                **({"force": True} if kind == "calibrate_forced" else {}))
        return kind, app, args, reply

    def reconnect(self) -> None:
        if self.client is not None:
            self.client.close()

    def check(self, index: int, output: Any, seconds: float
              ) -> Dict[str, float]:
        kind, app, args, reply = output
        n = len(self.ctx.space)
        truth, optimal = self.truth[app]
        quality = {"deadline_met": float(seconds <= self.DEADLINE_S)}
        if kind == "optimize":
            rates, powers, idle, work, deadline = args
            slots = reply["schedule"]
            busy = sum(float(s["duration"]) for s in slots)
            _require(all(float(s["duration"]) >= 0 for s in slots)
                     and busy <= deadline * (1 + 1e-9)
                     and float(reply["energy"]) > 0,
                     f"optimize {app}: malformed schedule")
            # Price the plan on the true curves (no feedback): the
            # Figure 11 quantity for an open-loop schedule.  Idle slots,
            # and the window time no slot covers, draw idle power.
            energy = idle * (deadline - busy)
            done = 0.0
            for slot in slots:
                if slot["config_index"] is None:
                    energy += float(slot["duration"]) * idle
                else:
                    c = int(slot["config_index"])
                    energy += float(slot["duration"]) * truth.true_powers[c]
                    done += float(slot["duration"]) * truth.true_rates[c]
            share = min(max(done / work, 1e-6), 1.0)
            quality["energy_norm"] = (energy / share
                                      / optimal.min_energy(work, deadline))
            quality["energy_j"] = energy
        elif kind == "estimate":
            _require(_curve_ok(reply, n), f"estimate {app}: bad curve")
            quality["accuracy"] = accuracy(reply, truth.true_powers)
        else:
            expected = ("calibration" if kind == "calibrate_forced"
                        else "registry")
            _require(reply.get("source") == expected
                     and reply.get("num_configs") == n
                     and _curve_ok(reply["rates"], n)
                     and _curve_ok(reply["powers"], n),
                     f"{kind} {app}: bad reply (source "
                     f"{reply.get('source')!r})")
            if kind == "calibrate_forced":
                quality["accuracy"] = 0.5 * (reply["accuracy_performance"]
                                             + reply["accuracy_power"])
        rng = op_rng(self.seed, index, REPLAY)
        first = kind not in {entry[0] for entry in self.replays}
        if first or rng.random() < self.REPLAY_SHARE:
            self.replays.append(output)
        return quality

    def verify(self) -> List[str]:
        """Replay sampled requests in process; replies must match bit for
        bit (the wire promises bit-exact floats)."""
        service = EstimationService()
        problems = list(self.setup_problems)
        replayed = {entry[0] for entry in self.replays}
        problems += [f"no {kind} reply was replayed"
                     for kind in sorted(set(self.BLOCK) - replayed)]
        for kind, app, args, reply in self.replays:
            if kind == "optimize":
                rates, powers, idle, work, deadline = args
                local = service.handle(Request("optimize", {
                    "rates": encode_array(rates),
                    "powers": encode_array(powers), "idle_power": idle,
                    "work": work, "deadline": deadline,
                    "mode": "deadline-energy"}))
                same = _canonical(local) == _canonical(reply)
            elif kind == "estimate":
                local = create_estimator("offline").estimate(args[0])
                same = _bits_equal(local, reply)
            else:
                local = service.handle(Request("calibrate-report", {
                    "app": app, "estimator": "offline", "force": True,
                    "seed": 0, "samples": self.SAMPLES}))
                if kind == "calibrate_forced":
                    local.pop("version", None)
                    reply = {k: v for k, v in reply.items() if k != "version"}
                    same = _canonical(local) == _canonical(reply)
                else:
                    same = all(_bits_equal(np.asarray(local[key]),
                                           np.asarray(reply[key]))
                               for key in ("rates", "powers"))
            if not same:
                problems.append(f"{kind} {app}: reply differs from the "
                                "in-process result")
        return problems


def _canonical(payload: Any) -> str:
    """Exact text form: repr of every float, so -0.0 and the last bit
    count."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return [plain(v) for v in value.tolist()]
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return value
    return json.dumps(plain(payload), sort_keys=True)


def _bits_equal(a: np.ndarray, b: Any) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a process (all threads), from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _proc_status_mb(pid: int, key: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# cluster_cap
# ----------------------------------------------------------------------
class ClusterCap(Workload):
    """16-tenant capped bursts shaped like the soak's."""

    name = "cluster_cap"
    run_ops = 40
    TENANTS = 16
    CAP_WATTS = 800.0
    CAP_MARGIN = 0.15
    SAMPLES = 4
    DEADLINE_S = 30.0
    UTILIZATION = 0.5

    def setup(self, ledger_path: Optional[str] = None) -> None:
        ctx = _fresh_context("cores")
        self.ctx = ctx
        self.names = ctx.benchmark_names
        self.apps = {}
        for name in self.names:
            view = ctx.dataset.leave_one_out(name)
            truth = ctx.truth.leave_one_out(name)
            self.apps[name] = (ctx.profile(name), view,
                               float(truth.true_rates.min()))
        self.offset = int(np.random.default_rng(self.seed).integers(
            len(self.names)))
        # One burst outside the measured window lets lazy imports and
        # first-call caches settle.
        self.check(-1, self._burst(0, op_seed(self.seed, 0, WARMUP)), 0.0)

    def op(self, index: int) -> Any:
        return self._burst(index, op_seed(self.seed, index))

    def _burst(self, index: int, seed: int) -> Any:
        coordinator = ClusterCoordinator(
            self.ctx.space, cap_watts=self.CAP_WATTS, policy="joint",
            sample_count=self.SAMPLES, cap_margin=self.CAP_MARGIN,
            seed=seed)
        for t in range(self.TENANTS):
            app = self.names[(self.offset + index + t) % len(self.names)]
            profile, view, slowest = self.apps[app]
            coordinator.admit(Tenant(
                name=f"t{t:02d}", workload=profile,
                work=self.UTILIZATION * slowest * self.DEADLINE_S,
                deadline=self.DEADLINE_S, estimator="leo",
                prior_rates=view.prior_rates,
                prior_powers=view.prior_powers, arrival=float(t % 4)))
        return coordinator.run()

    def check(self, index: int, output: Any, seconds: float
              ) -> Dict[str, float]:
        report = output
        _require(report.cap_respected,
                 f"burst {index}: peak {max(report.epoch_peak_watts):.1f} W "
                 f"over the {report.cap_watts:.0f} W cap")
        _require(len(report.tenants) == self.TENANTS
                 and report.node_energy > 0,
                 f"burst {index}: incomplete report")
        met = [t.met_deadline for t in report.tenants.values()]
        return {"energy_j": report.node_energy,
                "deadline_met": float(np.mean(met)),
                "cap_ok": float(report.cap_respected)}


WORKLOADS = {cls.name: cls for cls in (LeoPaper, ServicePaper, ClusterCap)}
