"""The per-layer ledger: timing wrappers around the program's public calls.

The benchmark measures each layer from outside.  :func:`install` wraps
the public functions named in :data:`SPANS` (and the frame codecs and
``nearest_psd_jitter``, wherever a module imported them by name), and
every call becomes one in-memory record::

    (label, start, duration, self_duration, side, value)

``self_duration`` is the call's duration minus the time its wrapped
children took on the same thread; ``value`` is a per-call quantity some
spans carry (EM iterations, cache hit, bytes, cluster epochs).  Records
stay in memory and are written out once, at exit (:meth:`Ledger.dump`).

Nothing is wrapped unless :func:`install` runs, so an untraced run
executes the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Record = Tuple[str, float, float, float, str, float]


class Ledger:
    """Span records of one process (thread-safe appends)."""

    def __init__(self, side: str) -> None:
        self.side = side
        self.records: List[Record] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, original: Callable, label, value=None) -> Callable:
        """``original`` timed as span ``label``.

        ``label`` is a string or ``f(args, kwargs) -> str``; ``value`` is
        ``f(args, result, child_labels) -> float``, evaluated after a
        successful call.
        """
        ledger = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            stack = ledger._stack()
            frame = [0.0, []]
            stack.append(frame)
            start = time.perf_counter()
            amount = 0.0
            try:
                result = original(*args, **kwargs)
                if value is not None:
                    amount = float(value(args, result, frame[1]))
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1].append(name)
                ledger.records.append((name, start, duration,
                                       duration - frame[0], ledger.side,
                                       amount))

        timed.__wrapped_original__ = original
        return timed

    def dump(self, path: str) -> None:
        """Write every record as one JSON line."""
        with open(path, "w") as handle:
            for record in list(self.records):
                handle.write(json.dumps(record) + "\n")


def load(path: str) -> List[Record]:
    """Records written by :meth:`Ledger.dump` (empty when absent)."""
    try:
        with open(path) as handle:
            return [tuple(json.loads(line)) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _request_kind(op: str, payload) -> str:
    if op == "calibrate-report":
        forced = bool((payload or {}).get("force", False))
        return "calibrate_forced" if forced else "calibrate_warm"
    return op.replace("-", "_")


def _client_label(args, kwargs) -> str:
    op = args[1] if len(args) > 1 else kwargs.get("op")
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    return "client." + _request_kind(op, payload)


def _server_label(args, kwargs) -> str:
    request = args[1] if len(args) > 1 else kwargs["request"]
    return "server." + _request_kind(request.op, request.payload)


def _estimator_label(args, kwargs) -> str:
    return "estimator." + getattr(args[0], "name", type(args[0]).__name__)


def _cache_hit(args, result, children) -> float:
    return 0.0 if "linalg.posterior" in children else 1.0


#: (module, "Class.method", span label, per-call value).
SPANS: Sequence[Tuple[str, str, object, Optional[Callable]]] = (
    ("repro.core.em", "EMEngine.fit", "em.fit",
     lambda args, result, children: result.iterations),
    ("repro.core.linalg", "MaskedPosterior.__init__", "linalg.posterior",
     None),
    ("repro.core.linalg", "PosteriorCache.get", "linalg.cache_get",
     _cache_hit),
    ("repro.estimators.leo", "LEOEstimator.estimate", _estimator_label,
     None),
    ("repro.estimators.offline", "OfflineEstimator.estimate",
     _estimator_label, None),
    ("repro.platform.machine", "Machine.run_for", "machine.run_for", None),
    ("repro.runtime.controller", "RuntimeController.calibrate",
     "controller.calibrate", None),
    ("repro.runtime.controller", "RuntimeController.run", "controller.run",
     None),
    ("repro.optimize.lp", "EnergyMinimizer.solve", "lp.solve", None),
    ("repro.optimize.pareto", "TradeoffFrontier.__init__",
     "pareto.frontier", None),
    ("repro.cluster.allocator", "PowerCapAllocator.allocate",
     "allocator.allocate", None),
    ("repro.cluster.coordinator", "ClusterCoordinator.run",
     "coordinator.run", lambda args, result, children: result.epochs),
    ("repro.service.client", "ServiceClient.call", _client_label, None),
    ("repro.service.server", "EstimationService.handle", _server_label,
     None),
    ("repro.service.registry", "ModelRegistry.warm_estimate",
     "registry.warm", None),
    ("repro.service.registry", "ModelRegistry.publish", "registry.publish",
     None),
    ("repro.obs.metrics", "Histogram.percentile", "obs.percentile", None),
)

#: Module-level functions, wrapped in every ``repro`` module that bound
#: them by name: (defining module, function, span label, per-call value).
FUNCTIONS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("repro.core.linalg", "nearest_psd_jitter", "linalg.psd_repair", None),
    ("repro.service.frames", "encode_binary_frame", "codec.encode",
     lambda args, result, children: len(result)),
    ("repro.service.frames", "decode_binary_frame", "codec.decode",
     lambda args, result, children: len(args[0])),
    ("repro.service.protocol", "encode_frame", "codec.encode",
     lambda args, result, children: len(result)),
    ("repro.service.protocol", "decode_frame", "codec.decode",
     lambda args, result, children: len(args[0])),
)

#: Modules imported before wrapping, so every by-name import is rebound.
_IMPORTS = ("repro.core.em", "repro.runtime.controller", "repro.cluster",
            "repro.service.client", "repro.service.server",
            "repro.estimators.registry", "repro.experiments.harness")


def install(ledger: Ledger) -> None:
    """Wrap every span in :data:`SPANS` and :data:`FUNCTIONS`."""
    for module in _IMPORTS:
        importlib.import_module(module)
    for module, path, label, value in SPANS:
        owner_name, attr = path.split(".")
        owner = getattr(importlib.import_module(module), owner_name)
        setattr(owner, attr, ledger.wrap(owner.__dict__[attr], label, value))
    for module, name, label, value in FUNCTIONS:
        original = getattr(importlib.import_module(module), name)
        timed = ledger.wrap(original, label, value)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original):
                setattr(loaded, name, timed)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Request kinds of the service workload.
REQUEST_KINDS = ("optimize", "calibrate_warm", "calibrate_forced",
                 "estimate")

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER: Dict[str, str] = {
    "em.fit_s": "s/op", "em.fits": "1/op", "em.iterations": "1/op",
    "linalg.posterior_s": "s/op", "linalg.posteriors": "1/op",
    "linalg.psd_repair_s": "s/op", "linalg.cache_get_self_s": "s/op",
    "linalg.cache_hit_frac": "frac",
    "estimator.leo_s": "s/op", "estimator.offline_s": "s/op",
    "machine.run_for_s": "s/op", "machine.run_for_calls": "1/op",
    "controller.calibrate_s": "s/op", "controller.run_s": "s/op",
    "controller.run_self_s": "s/op",
    "lp.solve_s": "s/op", "lp.solves": "1/op",
    "pareto.frontier_s": "s/op", "pareto.frontiers": "1/op",
    "allocator.allocate_s": "s/op", "allocator.allocations": "1/op",
    "coordinator.epochs": "1/op",
    **{f"client.{kind}_s": "s/op" for kind in REQUEST_KINDS},
    "codec.encode_s": "s/op", "codec.decode_s": "s/op",
    "codec.bytes_out": "B/op", "codec.bytes_in": "B/op",
    **{f"server.{kind}_s": "s/op" for kind in REQUEST_KINDS},
    "broker.overhead_s": "s/op",
    "registry.warm_s": "s/op", "registry.publish_s": "s/op",
    "registry.publishes": "1/op",
    "obs.percentile_s": "s/op", "obs.percentile_calls": "1/op",
    "trace.op_s_p50": "s", "trace.overhead_frac": "frac",
}


def layer_metrics(records: Iterable[Record], window: Tuple[float, float],
                  ops: int) -> Dict[str, float]:
    """Per-op layer totals from the records that started in ``window``.

    Every value is per measured op, so the ``_s`` entries of one
    workload add up like shares of its mean op time.  The ``trace.*``
    entries are filled in by the caller.
    """
    begin, end = window
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    values: Dict[str, float] = {}
    bytes_out = bytes_in = 0.0
    for label, start, duration, own, side, value in records:
        if not begin <= start < end:
            continue
        total[label] = total.get(label, 0.0) + duration
        self_time[label] = self_time.get(label, 0.0) + own
        calls[label] = calls.get(label, 0) + 1
        values[label] = values.get(label, 0.0) + value
        if side == "load" and label == "codec.encode":
            bytes_out += value
        elif side == "load" and label == "codec.decode":
            bytes_in += value
    per = 1.0 / max(ops, 1)

    def busy(label: str) -> float:
        return total.get(label, 0.0) * per

    gets = calls.get("linalg.cache_get", 0)
    client = sum(total.get(f"client.{k}", 0.0) for k in REQUEST_KINDS)
    handled = sum(total.get(f"server.{k}", 0.0) for k in REQUEST_KINDS)
    codec = total.get("codec.encode", 0.0) + total.get("codec.decode", 0.0)
    metrics = {
        "em.fit_s": busy("em.fit"),
        "em.fits": calls.get("em.fit", 0) * per,
        "em.iterations": values.get("em.fit", 0.0) * per,
        "linalg.posterior_s": busy("linalg.posterior"),
        "linalg.posteriors": calls.get("linalg.posterior", 0) * per,
        "linalg.psd_repair_s": busy("linalg.psd_repair"),
        "linalg.cache_get_self_s": self_time.get("linalg.cache_get", 0.0)
        * per,
        "linalg.cache_hit_frac": (values.get("linalg.cache_get", 0.0) / gets
                                  if gets else 0.0),
        "estimator.leo_s": busy("estimator.leo"),
        "estimator.offline_s": busy("estimator.offline"),
        "machine.run_for_s": busy("machine.run_for"),
        "machine.run_for_calls": calls.get("machine.run_for", 0) * per,
        "controller.calibrate_s": busy("controller.calibrate"),
        "controller.run_s": busy("controller.run"),
        "controller.run_self_s": self_time.get("controller.run", 0.0) * per,
        "lp.solve_s": busy("lp.solve"),
        "lp.solves": calls.get("lp.solve", 0) * per,
        "pareto.frontier_s": busy("pareto.frontier"),
        "pareto.frontiers": calls.get("pareto.frontier", 0) * per,
        "allocator.allocate_s": busy("allocator.allocate"),
        "allocator.allocations": calls.get("allocator.allocate", 0) * per,
        "coordinator.epochs": values.get("coordinator.run", 0.0) * per,
        "codec.encode_s": busy("codec.encode"),
        "codec.decode_s": busy("codec.decode"),
        "codec.bytes_out": bytes_out * per,
        "codec.bytes_in": bytes_in * per,
        "broker.overhead_s": (max(client - handled - codec, 0.0) * per
                              if client else 0.0),
        "registry.warm_s": busy("registry.warm"),
        "registry.publish_s": busy("registry.publish"),
        "registry.publishes": calls.get("registry.publish", 0) * per,
        "obs.percentile_s": busy("obs.percentile"),
        "obs.percentile_calls": calls.get("obs.percentile", 0) * per,
    }
    for kind in REQUEST_KINDS:
        metrics[f"client.{kind}_s"] = busy(f"client.{kind}")
        metrics[f"server.{kind}_s"] = busy(f"server.{kind}")
    return metrics


def overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Tracing overhead: traced over untraced median op time, minus one."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0
