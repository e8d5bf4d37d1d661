"""A process-wide registry of named counters, gauges, and histograms.

Each count is kept once, by the component whose code sees the event:
the executor's :class:`~repro.exec.executor.ExecutorStats`, the
device's channel and simulation caches, the remote backend's client
counters and the cloud service's
:class:`~repro.service.cloud.ServiceStats`. :class:`MetricsRegistry`
is where they are read together: a closing
:class:`~repro.experiments.context.ExperimentContext` adds its ledgers
once, through :meth:`MetricsRegistry.ingest`, under stable prefixes
(``exec.*``, ``cache.*``, ``remote.*``, ``service.*``); live
instrumentation bumps the counters no ledger holds (``angel.*``,
``opt.*``, ``service.tenant.*``) directly, and the tracer feeds
per-span wall-time histograms — one ``snapshot()``/``to_text()`` shows
where time and shots went.

Semantics:

* :class:`Counter` — monotonic; ``add`` refuses negative increments.
* :class:`Gauge` — last-write-wins level (queue depth, resident bytes).
* :class:`Histogram` — count/sum/min/max plus fixed decade buckets;
  enough to see the shape of span durations without reservoir sampling.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, TextIO

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically non-decreasing named value.

    Increments are atomic (per-metric lock, shared with the owning
    registry when there is one) so concurrent instrumented threads —
    the multi-tenant service's worker pool — never lose updates.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(
        self, name: str, lock: Optional[threading.RLock] = None
    ) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (add {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins level (queue depth, resident bytes, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram bucket upper bounds: decades from 1 microsecond to
#: 1000 seconds cover everything from a span push to a full experiment.
_DECADE_BUCKETS = tuple(10.0**e for e in range(-6, 4))


class Histogram:
    """Count/sum/min/max plus fixed-boundary bucket counts."""

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        lock: Optional[threading.RLock] = None,
    ) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets or _DECADE_BUCKETS))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock if lock is not None else threading.RLock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    return
            self.bucket_counts[-1] += 1

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` observations of ``value`` in one update.

        Used when one measured region amortizes over many units of work
        (an executor batch of many jobs): the per-unit value lands
        ``count`` times, so percentiles stay comparable with the
        one-span-per-unit shape.
        """
        if count <= 0:
            return
        with self._lock:
            self.count += count
            self.total += value * count
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += count
                    return
            self.bucket_counts[-1] += count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                f"le_{bound:g}": count
                for bound, count in zip(self.buckets, self.bucket_counts)
                if count
            },
        }


#: Ledger keys that are levels, not cumulative totals — ingested as
#: gauges, since a sum of several caches' sizes or epochs means nothing.
_GAUGE_KEYS = frozenset({"entries", "epoch"})


class MetricsRegistry:
    """Named metrics, created on first use, read out together."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # One reentrant lock for the whole registry: metric creation,
        # every counter/histogram mutation, and snapshot iteration all
        # serialize on it, so concurrent service threads can share one
        # installed registry.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Metric accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(
                    name, lock=self._lock
                )
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None
    ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(
                    name, buckets, lock=self._lock
                )
            return metric

    # ------------------------------------------------------------------
    # Ledger absorption
    # ------------------------------------------------------------------
    def ingest(self, prefix: str, ledger: Mapping[str, Any]) -> None:
        """Add a cumulative stats mapping under ``prefix``.

        Scalar values are added to counters, so ingesting the ledgers of
        several components sums them; keys in the known gauge set become
        gauges instead. Nested mappings (per-tag breakdowns) flatten into
        ``prefix.key.subkey``. Non-numeric values are skipped.
        """
        for key, value in ledger.items():
            name = f"{prefix}.{key}"
            if isinstance(value, Mapping):
                self.ingest(name, value)
            elif isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            elif key in _GAUGE_KEYS:
                self.gauge(name).set(float(value))
            else:
                self.counter(name).add(float(value))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of every metric."""
        with self._lock:
            return {
                "counters": {
                    name: metric.value
                    for name, metric in sorted(self._counters.items())
                },
                "gauges": {
                    name: metric.value
                    for name, metric in sorted(self._gauges.items())
                },
                "histograms": {
                    name: metric.snapshot()
                    for name, metric in sorted(self._histograms.items())
                },
            }

    def dump_jsonl(self, file: "TextIO") -> None:
        """One JSON line per metric: ``{"metric": name, "type": ...}``."""
        snapshot = self.snapshot()
        for kind_key, kind in (
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("histograms", "histogram"),
        ):
            for name, value in snapshot[kind_key].items():
                json.dump(
                    {"metric": name, "type": kind, "value": value},
                    file,
                    separators=(",", ":"),
                )
                file.write("\n")

    def to_text(self) -> str:
        """Human-readable dump, one aligned line per metric."""
        with self._lock:
            return self._to_text_locked()

    def _to_text_locked(self) -> str:
        lines: List[str] = []
        names = list(self._counters) + list(self._gauges) + list(
            self._histograms
        )
        width = max((len(name) for name in names), default=0)
        for name in sorted(self._counters):
            value = self._counters[name].value
            rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"{name:<{width}}  {rendered}")
        for name in sorted(self._gauges):
            lines.append(f"{name:<{width}}  {self._gauges[name].value:g}")
        for name in sorted(self._histograms):
            metric = self._histograms[name]
            lines.append(
                f"{name:<{width}}  count={metric.count} "
                f"mean={metric.mean:.6g} min={metric.min or 0:.6g} "
                f"max={metric.max or 0:.6g}"
            )
        return "\n".join(lines)
