"""Metrics registry: counters, gauges, and histograms.

The runtime increments a small fixed vocabulary of metrics (see
docs/OBSERVABILITY.md): ``em_iterations_total``, ``lp_resolves_total``,
``fit_seconds``, ``sampling_energy_joules``,
``constraint_violation_ratio``, and the profiling-hook timers.  A
:class:`MetricsRegistry` owns them by name; :meth:`MetricsRegistry.snapshot`
freezes everything into plain dictionaries, which
:meth:`MetricsRegistry.write_json` writes out.

Like tracing, metrics are off by default: the ambient registry is the
no-op :data:`NULL_METRICS` singleton, so ``metrics.inc(...)`` on an
uninstrumented run is a single cheap method call.  Stdlib-only.

Cross-process aggregation (PR 6): :meth:`MetricsRegistry.dump` exports
the *full* registry — histograms as raw observation lists, not
summaries — and :meth:`MetricsRegistry.merge` folds such a dump into
another registry: counters add, gauges take the incoming value
(last-write-wins), histograms concatenate raw values so merged
percentiles are exact, not approximations stitched from per-process
summaries.  Service servers dump, the caller merges, and one snapshot
reports fleet-wide truth.

Label dimensions are encoded in the metric name via :func:`labeled`
(``cluster_tenant_epochs_total{tenant=kmeans}``), keeping the registry
a flat name-to-instrument map that dumps, merges, and snapshots without
special cases.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, List, Optional, Union

PathLike = Union[str, pathlib.Path]

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "labeled",
    "parse_labeled",
]


def labeled(name: str, **labels: Any) -> str:
    """Encode label dimensions into a metric name.

    ``labeled("cluster_tenant_epochs_total", tenant="kmeans")`` →
    ``"cluster_tenant_epochs_total{tenant=kmeans}"``.  Labels are
    sorted, so the same dimensions always produce the same series name
    in every process — which is what makes labeled series merge
    correctly across registries.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_labeled(series: str) -> "tuple[str, Dict[str, str]]":
    """Split a :func:`labeled` series name into ``(base, labels)``."""
    if not series.endswith("}") or "{" not in series:
        return series, {}
    base, _, inner = series[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        key, sep, value = part.partition("=")
        if sep:
            labels[key] = value
    return base, labels


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += float(amount)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = float("nan")

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """A distribution of observed values with exact percentiles.

    Stores raw observations (the runtime records thousands, not
    millions); percentiles use the nearest-rank method on a sorted copy.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._values else float("nan")

    @property
    def min(self) -> float:
        return min(self._values) if self._values else float("nan")

    @property
    def max(self) -> float:
        return max(self._values) if self._values else float("nan")

    @property
    def values(self) -> List[float]:
        """The raw observations, in arrival order (a copy).

        This is what crosses process boundaries in a registry
        :meth:`~MetricsRegistry.dump`: merged histograms concatenate
        raw values, so fleet-wide percentiles are exact.
        """
        return list(self._values)

    def extend(self, values) -> None:
        """Record many observations at once (the merge path)."""
        self._values.extend(float(v) for v in values)

    def percentile(self, q: float, mode: str = "nearest") -> float:
        """Percentile of the recorded values, ``q`` in [0, 100].

        ``mode="nearest"`` (default) is the nearest-rank method: always
        returns an actually-observed value, with ``rank = ceil(q*n/100)``
        computed multiply-first — ``q/100*n`` rounds up spuriously when
        ``q/100`` is inexact (e.g. q=55, n=20 gives 11.000000000000002,
        one rank too high).  ``mode="linear"`` interpolates between the
        two nearest order statistics (numpy's default), which the SLO
        tracker uses so a latency objective's observed percentile moves
        continuously as observations arrive.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if mode not in ("nearest", "linear"):
            raise ValueError(f"mode must be 'nearest' or 'linear', "
                             f"got {mode!r}")
        if not self._values:
            return float("nan")
        ordered = sorted(self._values)
        n = len(ordered)
        if mode == "linear":
            # numpy's arithmetic step for step: the index (n-1) * (q/100),
            # and a two-sided lerp that measures from the nearer order
            # statistic, so a weight near 1 cannot cancel catastrophically
            # in a + (b - a) * t.
            position = (n - 1) * (q / 100.0)
            if position >= n - 1:
                return ordered[-1]
            lower = int(math.floor(position))
            a, b = ordered[lower], ordered[lower + 1]
            fraction = position - lower
            if fraction >= 0.5:
                return b - (b - a) * (1.0 - fraction)
            return a + (b - a) * fraction
        if q == 0:
            return ordered[0]
        # Clamp below: q*n/100 underflows to 0.0 for subnormal q, and
        # ceil(0.0) would index ordered[-1] (the max) instead of the min.
        rank = max(1, math.ceil(q * n / 100.0))
        return ordered[min(rank, n) - 1]

    def summary(self) -> Dict[str, float]:
        """The export form: count/sum/min/max/mean and p50/p90/p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms with a snapshot API."""

    is_recording = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) --------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        self._check_kind(name, self._counters, "counter")
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        self._check_kind(name, self._gauges, "gauge")
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        self._check_kind(name, self._histograms, "histogram")
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def _check_kind(self, name: str, own: Dict[str, Any], kind: str) -> None:
        for other_kind, table in (("counter", self._counters),
                                  ("gauge", self._gauges),
                                  ("histogram", self._histograms)):
            if table is not own and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot reuse it as a {kind}"
                )

    # -- one-line conveniences (what instrumented code calls) -----------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        self.histogram(name).observe(value)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Freeze the registry into plain dictionaries.

        Shape: ``{"counters": {name: value}, "gauges": {name: value},
        "histograms": {name: {count, sum, min, max, mean, p50, p90,
        p99}}}`` — stable, JSON-ready, and what the reporting helpers
        consume.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(self._histograms.items())},
        }

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """The full lossless export, for cross-process aggregation.

        Unlike :meth:`snapshot`, histograms appear as their raw
        observation lists — the only representation that merges without
        losing percentile exactness.  The result is JSON- and
        pickle-ready (plain dicts, lists, floats).
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.values
                           for n, h in sorted(self._histograms.items())},
        }

    def merge(self, dump: Dict[str, Dict[str, Any]]) -> None:
        """Fold one :meth:`dump` into this registry.

        Counter values add; gauges take the incoming value (last-write
        wins — the dump is the more recent observation); histograms
        concatenate raw values.  Merging a :meth:`snapshot` (summary
        dicts instead of value lists) is rejected loudly rather than
        silently recorded as garbage.
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, values in dump.get("histograms", {}).items():
            if isinstance(values, dict):
                raise ValueError(
                    f"histogram {name!r} holds a summary dict; merge() "
                    f"needs raw values — export with dump(), not snapshot()")
            self.histogram(name).extend(values)

    def write_json(self, path: PathLike) -> pathlib.Path:
        """Write :meth:`snapshot` as pretty-printed JSON.

        A ``raw_histograms`` section (the :meth:`dump` representation)
        rides along so post-hoc tools — ``repro obs slo``, cross-run
        merges — can rebuild exact percentiles instead of settling for
        the summary quantiles.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(self.snapshot(),
                       raw_histograms=self.dump()["histograms"])
        path.write_text(json.dumps(payload, indent=2,
                                   allow_nan=True, default=float) + "\n")
        return path

    def clear(self) -> None:
        """Drop every registered metric."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: every operation is a no-op."""

    is_recording = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """An empty snapshot with the standard shape."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """An empty dump with the standard shape."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, dump: Dict[str, Dict[str, Any]]) -> None:
        """Discard the dump (nothing is recorded while disabled)."""


#: The singleton disabled registry (the ambient default).
NULL_METRICS = NullMetrics()
