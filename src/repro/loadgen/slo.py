"""SLO extraction and gating over load-run traces.

:class:`SloAnalyzer` reduces the spans a load run produced — every
``svc.request`` summary, every ``svc.coalesce`` window, the ``search``
and ``exec.batch`` regions underneath — to one nested metrics dict:
p50/p95/p99 compile latency on *both* clocks (host wall seconds and
simulated device microseconds), queue wait, jitter, throughput,
admission-rejection rate, dedup and coalescing ratios, and the same
percentiles per tenant. Percentiles use the nearest-rank order
statistic (:func:`repro.obs.percentile`), so on a deterministic
workload the simulated-time numbers are bit-reproducible across runs
and machines.

:class:`SloPolicy` is the gate: a list of :class:`SloBound` declarations
(``metric`` dotted path, ``max_value`` / ``min_value``) evaluated
against an analysis dict into an :class:`SloVerdict` with a per-metric
margin — how far inside (or outside) the bound the measured value
landed. ``repro load --check`` turns a failing verdict into a nonzero
exit, which is what the CI ``slo-gate`` job keys on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..exceptions import ReproError
from ..obs import attr_values, filter_spans, group_by_attr, percentile

__all__ = ["SloAnalyzer", "SloBound", "SloPolicy", "SloVerdict"]

_QS = (50.0, 95.0, 99.0)


def _stats_block(values: Sequence[float], suffix: str) -> Dict[str, float]:
    """p50/p95/p99 + mean + jitter (population stdev) for one series."""
    block = {
        f"p{q:g}_{suffix}": percentile(values, q) for q in _QS
    }
    if values:
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
    else:
        mean = variance = 0.0
    block[f"mean_{suffix}"] = mean
    block[f"jitter_{suffix}"] = math.sqrt(variance)
    return block


class SloAnalyzer:
    """Pure post-processing: spans in, SLO metrics dict out.

    Args:
        spans: The load run's finished spans (:class:`~repro.obs.Span`
            objects or their dicts — e.g. ``read_trace`` output).
        wall_time_s: The run's wall-clock duration, the denominator for
            throughput. ``None`` falls back to the latest ``svc.
            request`` end time observed in the spans.
    """

    def __init__(
        self,
        spans: Iterable[Any],
        wall_time_s: Optional[float] = None,
    ) -> None:
        self.spans = list(spans)
        self.requests = filter_spans(self.spans, "svc.request")
        self.rejects = filter_spans(self.spans, "svc.reject")
        self.coalesces = filter_spans(self.spans, "svc.coalesce")
        if wall_time_s is None:
            wall_time_s = max(
                (
                    span.get("start_wall_s", 0.0)
                    + span.get("wall_time_s", 0.0)
                    for span in self.requests
                ),
                default=0.0,
            )
        self.wall_time_s = wall_time_s

    # ------------------------------------------------------------------
    def _request_block(
        self, requests: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """The full metric block for one group of svc.request spans."""
        completed = [
            span
            for span in requests
            if not span.get("attributes", {}).get("failed")
        ]
        probes = sum(attr_values(completed, "probes"))
        dedup_hits = sum(attr_values(completed, "dedup_hits"))
        return {
            "requests": len(requests),
            "completed": len(completed),
            "failed": len(requests) - len(completed),
            "latency": {
                "host": _stats_block(
                    attr_values(completed, "latency_s"), "s"
                ),
                "device": _stats_block(
                    attr_values(completed, "device_time_us"), "us"
                ),
            },
            "queue_wait": _stats_block(
                attr_values(completed, "queue_wait_s"), "s"
            ),
            "service_time": _stats_block(
                attr_values(completed, "service_time_s"), "s"
            ),
            "dedup": {
                "probes": probes,
                "hits": dedup_hits,
                "ratio": dedup_hits / probes if probes else 0.0,
            },
        }

    def analyze(self) -> Dict[str, Any]:
        """The one nested dict every SLO bound is a dotted path into."""
        report = self._request_block(self.requests)
        completed = report["completed"]
        submitted = len(self.requests) + len(self.rejects)
        report["rejected"] = len(self.rejects)
        report["rejection_rate"] = (
            len(self.rejects) / submitted if submitted else 0.0
        )
        report["wall_time_s"] = self.wall_time_s
        report["throughput_rps"] = (
            completed / self.wall_time_s if self.wall_time_s else 0.0
        )
        rounds = len(self.coalesces)
        units = sum(attr_values(self.coalesces, "units"))
        jobs = sum(attr_values(self.coalesces, "jobs"))
        report["coalescing"] = {
            "rounds": rounds,
            "units": units,
            "jobs": jobs,
            "mean_units_per_round": units / rounds if rounds else 0.0,
        }
        for name, key in (("search", "search"), ("exec.batch", "exec_batch")):
            regions = filter_spans(self.spans, name)
            report[key] = {
                "spans": len(regions),
                "wall": _stats_block(
                    [span.get("wall_time_s", 0.0) for span in regions],
                    "s",
                ),
            }
        report["per_tenant"] = {
            str(tenant): self._request_block(spans)
            for tenant, spans in sorted(
                group_by_attr(self.requests, "tenant").items(),
                key=lambda item: str(item[0]),
            )
        }
        return report


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SloBound:
    """One declared bound on one metric.

    ``metric`` is a dotted path into the analysis dict (e.g.
    ``latency.host.p95_s`` or ``per_tenant.alice.queue_wait.p99_s``);
    at least one of ``max_value`` / ``min_value`` must be set.
    """

    metric: str
    max_value: Optional[float] = None
    min_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_value is None and self.min_value is None:
            raise ReproError(
                f"SLO bound on {self.metric!r} declares no "
                f"max_value/min_value"
            )


@dataclass
class _BoundResult:
    """One bound's evaluation: measured value, margin, verdict."""

    bound: SloBound
    value: Optional[float]
    ok: bool
    #: Distance inside the bound (negative = violated by that much).
    margin: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        limits = {}
        if self.bound.max_value is not None:
            limits["max"] = self.bound.max_value
        if self.bound.min_value is not None:
            limits["min"] = self.bound.min_value
        return {
            "metric": self.bound.metric,
            "value": self.value,
            "ok": self.ok,
            "margin": self.margin,
            **limits,
        }


@dataclass
class SloVerdict:
    """Every bound's result plus the overall pass/fail."""

    results: List[_BoundResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def violations(self) -> List[_BoundResult]:
        return [result for result in self.results if not result.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "bounds": [result.to_dict() for result in self.results],
        }

    def to_text(self) -> str:
        """The verdict table ``repro load`` prints."""
        lines = [
            f"{'metric':44s} {'value':>12s} {'bound':>16s} "
            f"{'margin':>10s}  verdict"
        ]
        for result in self.results:
            bound = result.bound
            limits = []
            if bound.max_value is not None:
                limits.append(f"<= {bound.max_value:g}")
            if bound.min_value is not None:
                limits.append(f">= {bound.min_value:g}")
            value = (
                f"{result.value:.6g}" if result.value is not None
                else "missing"
            )
            margin = (
                f"{result.margin:+.4g}" if result.margin is not None
                else "-"
            )
            verdict = "ok" if result.ok else "VIOLATED"
            lines.append(
                f"{bound.metric:44s} {value:>12s} "
                f"{' '.join(limits):>16s} {margin:>10s}  {verdict}"
            )
        lines.append(
            "SLO: PASS" if self.passed
            else f"SLO: FAIL ({len(self.violations)} violated)"
        )
        return "\n".join(lines)


def _dig(analysis: Dict[str, Any], path: str) -> Optional[float]:
    value: Any = analysis
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


@dataclass(frozen=True)
class SloPolicy:
    """A set of bounds evaluated together against one analysis dict."""

    bounds: Sequence[SloBound] = ()

    def evaluate(self, analysis: Dict[str, Any]) -> SloVerdict:
        """Check every bound; missing metrics fail their bound.

        The margin is the distance to the *nearest violated-first*
        limit: for a max bound, ``max - value`` (positive = headroom);
        for a min bound, ``value - min``; with both, the smaller of the
        two. A missing metric is a failure, not a skip — a typo'd
        dotted path must not silently pass CI.
        """
        results = []
        for bound in self.bounds:
            value = _dig(analysis, bound.metric)
            if value is None:
                results.append(
                    _BoundResult(bound=bound, value=None, ok=False)
                )
                continue
            margins = []
            if bound.max_value is not None:
                margins.append(bound.max_value - value)
            if bound.min_value is not None:
                margins.append(value - bound.min_value)
            margin = min(margins)
            results.append(
                _BoundResult(
                    bound=bound,
                    value=value,
                    ok=margin >= 0.0,
                    margin=margin,
                )
            )
        return SloVerdict(results=results)
