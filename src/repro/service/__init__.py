"""Cloud-QPU service emulation: the unreliable path to the device.

The paper's workflow ran through a queued cloud service (Amazon Braket),
not a bench instrument. This package models that front door —
:class:`CloudQPUService` injects seeded submission latency, calibration
windows, rate limits, and transient faults in front of the simulated
device — and the client that survives it: :class:`RemoteBackend`
implements the :class:`~repro.exec.backend.Backend` protocol with
retries, backoff + jitter, per-job deadlines, a circuit breaker, and
partial-batch recovery, so everything above the execution seam (ANGEL,
CDR, the experiments, the CLI) runs unchanged against a flaky cloud.

On top of that sits the multi-tenant compile tier:
:class:`AngelService` accepts concurrent :class:`RequestSpec` compile
requests under token-bucket admission (:class:`TenantConfig`), deficit
round-robin fair scheduling (:class:`~repro.service.scheduler.
DeficitRoundRobin`) of each request's probe batches on the request's
own device and executor, and cross-tenant probe deduplication
(:class:`ProbeDistributionStore`) — while keeping every request
bit-identical to a standalone run (:func:`run_standalone`).

See ``docs/architecture.md`` ("Service layer & failure semantics" and
"Multi-tenant compile service") for how failures propagate up to
ANGEL's graceful degradation and how the service tier schedules.
"""

from .cloud import BatchOutcome, CloudQPUService, ServiceStats
from .dedup import ProbeDistributionStore
from .errors import (
    JobFailedError,
    JobRejectedError,
    JobTimeoutError,
    RateLimitError,
    ResultLostError,
    ServiceUnavailableError,
    TransientServiceError,
)
from .faults import FAULT_PROFILES, FaultProfile, ZERO_FAULTS, fault_profile
from .remote import RemoteBackend, RetryPolicy
from .scheduler import DeficitRoundRobin
from .tenant import AdmissionError, TenantConfig, TokenBucket

# The request/session layer pulls in the experiments context (which in
# turn imports this package's service classes above), so it must come
# after them to keep the import acyclic.
from .angel_service import (  # noqa: E402 - deliberate ordering
    AngelService,
    CompileOutcome,
    RequestHandle,
    RequestSpec,
    replay_workload,
    run_standalone,
)

__all__ = [
    "BatchOutcome",
    "CloudQPUService",
    "ServiceStats",
    "FaultProfile",
    "FAULT_PROFILES",
    "ZERO_FAULTS",
    "fault_profile",
    "RemoteBackend",
    "RetryPolicy",
    "TransientServiceError",
    "JobRejectedError",
    "JobTimeoutError",
    "ResultLostError",
    "ServiceUnavailableError",
    "RateLimitError",
    "JobFailedError",
    "AdmissionError",
    "TenantConfig",
    "TokenBucket",
    "DeficitRoundRobin",
    "ProbeDistributionStore",
    "AngelService",
    "RequestSpec",
    "RequestHandle",
    "CompileOutcome",
    "run_standalone",
    "replay_workload",
]
