"""RemoteBackend: a fault-tolerant client for the cloud QPU service.

Implements the :class:`~repro.exec.backend.Backend` protocol, so the
:class:`~repro.exec.executor.BatchExecutor` — and everything above it —
drives a flaky cloud service exactly the way it drives the in-process
device. The resilience machinery is the standard distributed-systems
toolkit, all in *simulated* time:

* **Retries with exponential backoff + jitter** — transient faults are
  resubmitted up to ``RetryPolicy.max_attempts`` times; each backoff
  advances the device clock through ``service.wait`` (drift accrues
  while the client waits, never host sleep), honours the service's
  ``retry_after_us`` hint, and is jittered by a seeded generator so runs
  are reproducible.
* **Per-job deadlines** — a job gives up early when its next backoff
  would push total elapsed simulated time past ``deadline_us``.
* **Circuit breaker** — ``breaker_threshold`` consecutive *permanent*
  job failures open the breaker; while open, submissions fast-fail
  without touching the service, and after ``breaker_cooldown_us`` of
  simulated time one trial submission half-opens it.
* **Partial-batch recovery** — a batch resubmission carries only the
  jobs whose slots came back empty, so one lost result never re-runs
  (or re-bills) the rest of the batch.

With a zero-fault profile none of this machinery fires and results are
bit-identical to ``LocalBackend`` sequential execution — the resilient
path costs nothing when the cloud behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ExecutionError
from ..exec.job import Job, JobResult
from ..obs import runtime as obs
from .cloud import CloudQPUService
from .errors import JobFailedError, TransientServiceError

__all__ = ["RetryPolicy", "RemoteBackend"]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resilience tunables.

    Attributes:
        max_attempts: Total submission attempts per job (1 = no retry).
        base_backoff_us: First backoff duration (simulated time).
        backoff_multiplier: Exponential growth factor per retry.
        jitter: Fractional jitter applied to each backoff (0.1 means
            +-10%, drawn from the backend's seeded generator).
        deadline_us: Per-job simulated-time budget across all attempts;
            ``None`` disables deadlines.
        breaker_threshold: Consecutive permanent failures that open the
            circuit breaker.
        breaker_cooldown_us: Simulated time the breaker stays open
            before allowing a half-open trial.
    """

    max_attempts: int = 4
    base_backoff_us: float = 1_000.0
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    deadline_us: Optional[float] = None
    breaker_threshold: int = 5
    breaker_cooldown_us: float = 100_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError("max_attempts must be >= 1")
        if self.base_backoff_us < 0:
            raise ExecutionError("base_backoff_us must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ExecutionError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ExecutionError("jitter must be in [0, 1)")
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ExecutionError("deadline_us must be positive when set")
        if self.breaker_threshold < 1:
            raise ExecutionError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_us < 0:
            raise ExecutionError("breaker_cooldown_us must be >= 0")

    def backoff_us(
        self,
        attempt: int,
        rng: np.random.Generator,
        retry_after_us: float = 0.0,
    ) -> float:
        """The wait before resubmission number ``attempt + 1``."""
        backoff = self.base_backoff_us * self.backoff_multiplier**attempt
        if self.jitter:
            backoff *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(backoff, retry_after_us)


class RemoteBackend:
    """A resilient Backend submitting through a :class:`CloudQPUService`.

    Args:
        service: The emulated cloud service to submit through.
        policy: Retry/deadline/breaker tunables.
        seed: Seed for backoff jitter (kept separate from the service's
            fault stream and the device's physics).
    """

    def __init__(
        self,
        service: CloudQPUService,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.service = service
        self.policy = policy or RetryPolicy()
        self._jitter_rng = np.random.default_rng(seed)
        # Client-side reliability counters: kept here only, read
        # out under ``remote`` (ExperimentContext.ledgers).
        self.retries = 0
        self.failures = 0
        self.breaker_trips = 0
        self.fast_fails = 0
        self.resubmitted = 0
        self.deadline_exceeded = 0
        self._consecutive_failures = 0
        self._breaker_open_until_us: Optional[float] = None

    @property
    def name(self) -> str:
        return f"remote[{self.service.name}]"

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------
    @property
    def breaker_open(self) -> bool:
        """Whether a submission right now would fast-fail."""
        return (
            self._breaker_open_until_us is not None
            and self.service.device.clock_us < self._breaker_open_until_us
        )

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        self._breaker_open_until_us = None

    def _record_failure(self, count: int = 1) -> None:
        self.failures += count
        self._consecutive_failures += count
        if self._consecutive_failures >= self.policy.breaker_threshold:
            if not self.breaker_open:
                self.breaker_trips += 1
                obs.event(
                    "remote.breaker_trip",
                    consecutive_failures=self._consecutive_failures,
                    cooldown_us=self.policy.breaker_cooldown_us,
                )
            self._breaker_open_until_us = (
                self.service.device.clock_us + self.policy.breaker_cooldown_us
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobResult:
        """Run one job with retries; raises JobFailedError on give-up."""
        if self.breaker_open:
            self.fast_fails += 1
            self.failures += 1
            obs.event("remote.fast_fail", job_id=job.job_id)
            raise JobFailedError(
                f"circuit breaker open: job "
                f"{job.job_id or job.circuit.name!r} not submitted",
                job=job,
            )
        tracer = obs.active_tracer()
        span = (
            tracer.span("remote.submit", job_id=job.job_id, shots=job.shots)
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            start_us = self.service.device.clock_us
            last: Optional[TransientServiceError] = None
            attempts = 0
            for attempt in range(self.policy.max_attempts):
                attempts += 1
                try:
                    result = self.service.execute(job)
                except TransientServiceError as exc:
                    last = exc
                    if attempt + 1 >= self.policy.max_attempts:
                        break
                    backoff = self.policy.backoff_us(
                        attempt, self._jitter_rng, exc.retry_after_us
                    )
                    elapsed = self.service.device.clock_us - start_us
                    if (
                        self.policy.deadline_us is not None
                        and elapsed + backoff > self.policy.deadline_us
                    ):
                        self.deadline_exceeded += 1
                        if tracer:
                            span.event(
                                "remote.deadline_exceeded",
                                elapsed_us=elapsed,
                                backoff_us=backoff,
                            )
                        break
                    self.retries += 1
                    if tracer:
                        span.event(
                            "remote.retry",
                            attempt=attempt + 1,
                            backoff_us=backoff,
                            error=type(exc).__name__,
                        )
                    self.service.wait(backoff)
                else:
                    self._record_success()
                    if tracer:
                        span.set(attempts=attempts)
                    return result
            self._record_failure()
            if tracer:
                span.set(attempts=attempts, failed=True)
        raise JobFailedError(
            f"job {job.job_id or job.circuit.name!r} failed permanently "
            f"after {attempts} attempts: {last}",
            job=job,
            cause=last,
        )

    def submit_batch(self, jobs: Sequence[Job]) -> List[JobResult]:
        """All-or-nothing batch: any permanent job failure raises."""
        results = self.submit_batch_tolerant(jobs)
        failed = [jobs[i] for i, r in enumerate(results) if r is None]
        if failed:
            raise JobFailedError(
                f"{len(failed)} of {len(jobs)} batch jobs failed "
                f"permanently (first: "
                f"{failed[0].job_id or failed[0].circuit.name!r})",
                job=failed[0],
            )
        return results  # type: ignore[return-value]

    def submit_batch_tolerant(
        self, jobs: Sequence[Job]
    ) -> List[Optional[JobResult]]:
        """Batch submission with partial-batch recovery.

        Returns one slot per job in submission order; a ``None`` slot is
        a job that failed permanently (retry budget, deadline, or open
        breaker). Each retry round resubmits *only* the failed slots.
        """
        if not jobs:
            return []
        tracer = obs.active_tracer()
        span = (
            tracer.span("remote.batch", jobs=len(jobs))
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            slots: List[Optional[JobResult]] = [None] * len(jobs)
            pending = list(range(len(jobs)))
            start_us = self.service.device.clock_us
            attempts = 0
            for attempt in range(self.policy.max_attempts):
                attempts += 1
                if self.breaker_open:
                    self.fast_fails += len(pending)
                    if tracer:
                        span.event(
                            "remote.fast_fail", pending=len(pending)
                        )
                    break
                if attempt > 0:
                    self.resubmitted += len(pending)
                try:
                    outcome = self.service.execute_batch(
                        [jobs[i] for i in pending]
                    )
                except TransientServiceError as exc:
                    still_pending = pending  # whole batch bounced
                    retry_after_us = exc.retry_after_us
                    if tracer:
                        span.event(
                            "remote.batch_bounced",
                            error=type(exc).__name__,
                            retry_after_us=retry_after_us,
                        )
                else:
                    still_pending = []
                    retry_after_us = 0.0
                    for slot, result in zip(pending, outcome.results):
                        if result is None:
                            still_pending.append(slot)
                        else:
                            slots[slot] = result
                    if len(still_pending) < len(pending):
                        # Progress was made: the service is alive.
                        self._record_success()
                    if not still_pending:
                        if tracer:
                            span.set(attempts=attempts, failed=0)
                        return slots
                pending = still_pending
                if attempt + 1 >= self.policy.max_attempts:
                    break
                backoff = self.policy.backoff_us(
                    attempt, self._jitter_rng, retry_after_us
                )
                elapsed = self.service.device.clock_us - start_us
                if (
                    self.policy.deadline_us is not None
                    and elapsed + backoff > self.policy.deadline_us
                ):
                    self.deadline_exceeded += 1
                    if tracer:
                        span.event(
                            "remote.deadline_exceeded",
                            elapsed_us=elapsed,
                            backoff_us=backoff,
                        )
                    break
                self.retries += len(pending)
                if tracer:
                    span.event(
                        "remote.retry",
                        attempt=attempt + 1,
                        pending=len(pending),
                        backoff_us=backoff,
                    )
                self.service.wait(backoff)
            if pending:
                self._record_failure(len(pending))
            if tracer:
                span.set(attempts=attempts, failed=len(pending))
        return slots

    # ------------------------------------------------------------------
    def reliability_stats(self) -> Dict[str, int]:
        """The client-side counters (the ``remote`` ledger)."""
        return {
            "retries": self.retries,
            "failures": self.failures,
            "breaker_trips": self.breaker_trips,
            "fast_fails": self.fast_fails,
            "resubmitted": self.resubmitted,
            "deadline_exceeded": self.deadline_exceeded,
        }
