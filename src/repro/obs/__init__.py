"""repro.obs — structured tracing + metrics over the execution stack.

One probe sweep through ANGEL touches six layers (search, executor,
backend, service, device, caches), each with its own ledger. This
package is the unified lens over all of them:

* :class:`Tracer` produces nested spans (search pass -> link ->
  candidate probe -> backend job) carrying wall time, simulated device
  time, shots, and cache-hit deltas;
* :class:`MetricsRegistry` holds named counters/gauges/histograms and
  absorbs the layer ledgers (``ExecutorStats``, ``cache_stats()``,
  ``ServiceStats``) under stable prefixes;
* :mod:`~repro.obs.export` streams spans as JSON lines and renders
  human-readable trace trees;
* :mod:`~repro.obs.runtime` is the switchboard: nothing is traced until
  a tracer is installed, and the disabled path costs one function call
  per site (pinned by ``benchmarks/bench_obs_overhead.py``).

Quickstart::

    from repro.obs import Tracer, MetricsRegistry, observed, render_trace

    with observed(Tracer(), MetricsRegistry()) as (tr, reg):
        result = angel.select(compiled)
    print(render_trace(tr.spans))
    print(reg.to_text())

Or from the CLI: ``python -m repro angel GHZ_n5 --trace trace.jsonl
--metrics``.
"""

from .export import (
    attr_values,
    filter_spans,
    group_by_attr,
    percentile,
    percentiles,
    read_trace,
    render_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import (
    NULL_SPAN,
    active_registry,
    active_tracer,
    event,
    install,
    observed,
    uninstall,
)
from .tracer import JsonlSpanSink, Span, SpanEvent, Tracer

__all__ = [
    "Tracer",
    "Span",
    "SpanEvent",
    "JsonlSpanSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "active_tracer",
    "active_registry",
    "install",
    "uninstall",
    "observed",
    "event",
    "read_trace",
    "render_trace",
    "filter_spans",
    "attr_values",
    "group_by_attr",
    "percentile",
    "percentiles",
]
