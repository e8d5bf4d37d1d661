"""repro.loadgen — load generation and SLO analysis for the service.

The CORTEX-style harness over :class:`~repro.service.AngelService`: a
:class:`WorkloadSpec` (YAML/JSON or dataclass) describes tenants, their
seeded arrival processes (open-loop Poisson, closed-loop with think
time, burst trains, diurnal ramps), program mixes, and the declared
:class:`SloBound` budget; a :class:`LoadGenerator` drives the service
on that schedule while collecting every span; an :class:`SloAnalyzer`
reduces the spans to p50/p95/p99 latency (host and simulated-device
clocks), queue wait, jitter, throughput, rejection, and dedup/
coalescing metrics; an :class:`SloPolicy` turns the declared bounds
into a pass/fail :class:`SloVerdict` with per-metric margins.

Determinism is the design center: same workload + seed means the same
request schedule, per-request outcomes bit-identical to
:func:`~repro.service.run_standalone`, and reproducible simulated-time
percentiles — which is what lets ``repro load --check`` and the CI
``slo-gate`` job fail on tail-latency regressions instead of a human
reading traces. Quickstart::

    from repro.loadgen import load_workload, LoadGenerator

    workload = load_workload("examples/workload_burst.yaml")
    report = LoadGenerator(workload).run()
    print(report.verdict().to_text())

Or from the CLI: ``python -m repro load --workload
examples/workload_burst.yaml --check``.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    arrival_offsets,
    burst_offsets,
    closed_loop_think_times,
    diurnal_offsets,
    poisson_offsets,
)
from .slo import SloAnalyzer, SloBound, SloPolicy, SloVerdict
from .workload import (
    ScheduledRequest,
    TenantLoad,
    WorkloadSpec,
    dump_workload,
    load_workload,
)

# The generator pulls in the service layer (which imports the
# experiments context); import it last to keep the package acyclic.
from .generator import LoadGenerator, LoadReport  # noqa: E402

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "arrival_offsets",
    "poisson_offsets",
    "burst_offsets",
    "diurnal_offsets",
    "closed_loop_think_times",
    "TenantLoad",
    "WorkloadSpec",
    "ScheduledRequest",
    "load_workload",
    "dump_workload",
    "SloAnalyzer",
    "SloBound",
    "SloPolicy",
    "SloVerdict",
    "LoadGenerator",
    "LoadReport",
]
