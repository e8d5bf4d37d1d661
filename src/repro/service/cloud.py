"""A deterministic emulation of a queued cloud QPU service.

The paper's entire evaluation ran on Rigetti Aspen machines *through
Amazon Braket*: jobs waited in a queue, the device disappeared into
recalibration windows, submissions were throttled, and a visible
fraction of jobs simply failed in transit. :class:`CloudQPUService` puts
that operational reality in front of the simulated device without
touching its physics — the device still owns time, drift, and sampling;
the service decides *whether and when* a submission reaches it.

Everything is seeded: the fault stream comes from one
``numpy`` generator owned by the service, drawn in submission order, so
a given (profile, seed, workload) triple replays the exact same
rejections, timeouts, and lost results every run. That determinism is
what lets the resilience tests pin retry counts and the degradation
tests pin which links fall back.

Simulated time discipline: queue latency and client backoffs advance the
*device clock* (``device.advance_time``), so noise drifts while jobs
wait — exactly the staleness mechanism the paper attributes to queued
cloud access (Section VI-C). Nothing here sleeps on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..exec.backend import LocalBackend
from ..exec.job import Job, JobResult
from ..obs import runtime as obs
from .errors import (
    JobRejectedError,
    JobTimeoutError,
    RateLimitError,
    ResultLostError,
    ServiceError,
    ServiceUnavailableError,
)
from .faults import FaultProfile, ZERO_FAULTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.device import RigettiAspenDevice

__all__ = ["ServiceStats", "BatchOutcome", "CloudQPUService"]


@dataclass
class ServiceStats:
    """Cumulative service-side accounting (what the provider would see)."""

    submitted: int = 0
    completed: int = 0
    rejections: int = 0
    timeouts: int = 0
    lost_results: int = 0
    batch_suffix_drops: int = 0
    rate_limited: int = 0
    unavailable: int = 0
    recalibrations: int = 0
    queue_latency_us: float = 0.0
    #: Batches that proactively waited for a fresh calibration window
    #: (scheduled admission) instead of bouncing off the quota.
    window_aligns: int = 0
    window_align_wait_us: float = 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejections": self.rejections,
            "timeouts": self.timeouts,
            "lost_results": self.lost_results,
            "batch_suffix_drops": self.batch_suffix_drops,
            "rate_limited": self.rate_limited,
            "unavailable": self.unavailable,
            "recalibrations": self.recalibrations,
            "queue_latency_us": self.queue_latency_us,
            "window_aligns": self.window_aligns,
            "window_align_wait_us": self.window_align_wait_us,
        }


@dataclass
class BatchOutcome:
    """Positional results of one batch submission.

    ``results[i]`` is the i-th job's result or ``None``; when ``None``,
    ``errors[i]`` holds the transient fault that claimed it. A client
    doing partial-batch recovery resubmits exactly the ``None`` slots.
    """

    results: List[Optional[JobResult]] = field(default_factory=list)
    errors: List[Optional[ServiceError]] = field(default_factory=list)

    @property
    def failed_indices(self) -> List[int]:
        return [i for i, r in enumerate(self.results) if r is None]


class CloudQPUService:
    """The queued, windowed, failure-prone front door to a device.

    Args:
        device: The simulated QPU behind the service.
        profile: The operational hazards to inject (default: none).
        seed: Seed for the fault stream (independent of the device's
            physics/sampling seeds).
    """

    def __init__(
        self,
        device: "RigettiAspenDevice",
        profile: FaultProfile = ZERO_FAULTS,
        seed: int = 0,
    ) -> None:
        self.device = device
        self.profile = profile
        self._local = LocalBackend(device)
        self._fault_rng = np.random.default_rng(seed)
        self.stats = ServiceStats()
        self._window_start_us = device.clock_us
        self._window_jobs = 0
        self._recalibrating_until_us: Optional[float] = None

    @property
    def name(self) -> str:
        return f"cloud[{self.device.name}]"

    def _observe_fault(self, kind: str, **attributes) -> None:
        """One injected fault: a span event on whoever is measuring us
        plus a ``service.<kind>`` counter when a registry is live."""
        obs.event(f"service.{kind}", **attributes)
        registry = obs.active_registry()
        if registry is not None:
            registry.counter(f"service.{kind}").add(1)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def wait(self, duration_us: float) -> None:
        """Let simulated time pass (client backoff); drift accrues."""
        if duration_us > 0:
            self.device.advance_time(duration_us)

    # ------------------------------------------------------------------
    # Admission: windows and rate limits
    # ------------------------------------------------------------------
    def _admit(self, num_jobs: int) -> None:
        profile = self.profile
        now = self.device.clock_us
        if self._recalibrating_until_us is not None:
            if now < self._recalibrating_until_us:
                self.stats.unavailable += 1
                self._observe_fault(
                    "unavailable",
                    retry_after_us=self._recalibrating_until_us - now,
                )
                raise ServiceUnavailableError(
                    f"{self.name} is recalibrating for another "
                    f"{self._recalibrating_until_us - now:.0f} us",
                    retry_after_us=self._recalibrating_until_us - now,
                )
            # Recalibration complete: a fresh window opens.
            self._recalibrating_until_us = None
            self._window_start_us = now
            self._window_jobs = 0
        if (
            profile.window_us is not None
            and now - self._window_start_us >= profile.window_us
        ):
            self._recalibrating_until_us = now + profile.recalibration_us
            self.stats.recalibrations += 1
            self.stats.unavailable += 1
            self._observe_fault(
                "recalibration", retry_after_us=profile.recalibration_us
            )
            raise ServiceUnavailableError(
                f"{self.name} calibration window expired; recalibrating",
                retry_after_us=profile.recalibration_us,
            )
        if (
            profile.max_jobs_per_window is not None
            and self._window_jobs + num_jobs > profile.max_jobs_per_window
        ):
            self.stats.rate_limited += 1
            self._observe_fault("rate_limited", jobs=num_jobs)
            window_ends_in = (
                self._window_start_us + profile.window_us - now
            )
            raise RateLimitError(
                f"{self.name} window quota "
                f"({profile.max_jobs_per_window} jobs) exhausted",
                retry_after_us=max(window_ends_in, 0.0),
            )
        self._window_jobs += num_jobs
        self.stats.submitted += num_jobs

    def window_state(self) -> Dict[str, object]:
        """Where the current calibration window stands (scheduler view)."""
        profile = self.profile
        now = self.device.clock_us
        remaining_jobs: Optional[int] = None
        if profile.max_jobs_per_window is not None:
            remaining_jobs = max(
                profile.max_jobs_per_window - self._window_jobs, 0
            )
        remaining_us: Optional[float] = None
        if profile.window_us is not None:
            remaining_us = max(
                self._window_start_us + profile.window_us - now, 0.0
            )
        return {
            "window_start_us": self._window_start_us,
            "window_jobs": self._window_jobs,
            "remaining_jobs": remaining_jobs,
            "remaining_us": remaining_us,
            "recalibrating_until_us": self._recalibrating_until_us,
        }

    def align_window(self, num_jobs: int) -> float:
        """Wait (in simulated time) until ``num_jobs`` fit one window.

        A batch that would bounce off the window quota or arrive during
        recalibration instead *waits out* the remainder of the window
        plus the recalibration gap, then lands at the start of a fresh
        window. Drift accrues across the wait exactly as it would for a
        client backing off, but no fault is raised — this is scheduled
        admission, not failure recovery. Returns the simulated
        microseconds waited (0 under a fault-free profile, whose window
        is unbounded). Batches larger than a whole window's quota can
        never fit and are left to :meth:`_admit`'s rate-limit error.
        """
        profile = self.profile
        waited = 0.0
        now = self.device.clock_us
        if self._recalibrating_until_us is not None:
            if now < self._recalibrating_until_us:
                waited += self._recalibrating_until_us - now
                self.wait(self._recalibrating_until_us - now)
            self._recalibrating_until_us = None
            self._window_start_us = self.device.clock_us
            self._window_jobs = 0
            now = self.device.clock_us
        if profile.window_us is None:
            return waited
        window_expired = now - self._window_start_us >= profile.window_us
        over_quota = (
            profile.max_jobs_per_window is not None
            and self._window_jobs + num_jobs > profile.max_jobs_per_window
            and num_jobs <= profile.max_jobs_per_window
        )
        if window_expired or over_quota:
            window_end = self._window_start_us + profile.window_us
            target = max(window_end, now) + profile.recalibration_us
            if target > now:
                waited += target - now
                self.wait(target - now)
            self.stats.recalibrations += 1
            self._window_start_us = self.device.clock_us
            self._window_jobs = 0
        if waited > 0:
            self.stats.window_aligns += 1
            self.stats.window_align_wait_us += waited
            obs.event(
                "service.window_align", jobs=num_jobs, waited_us=waited
            )
        return waited

    def _apply_latency(self) -> None:
        latency = self.profile.submission_latency_us
        if latency > 0:
            self.stats.queue_latency_us += latency
            self.device.advance_time(latency)

    # ------------------------------------------------------------------
    # Execution with fault injection
    # ------------------------------------------------------------------
    def _execute_one(self, job: Job) -> JobResult:
        """Run one admitted job, injecting at most one per-job fault.

        One uniform draw is partitioned across the fault types, so a
        profile's per-job fault rate is exactly ``p_job_fault`` and the
        draw sequence (hence the fault pattern) is seed-reproducible.
        """
        profile = self.profile
        roll = (
            float(self._fault_rng.random())
            if profile.p_job_fault > 0
            else 1.0
        )
        label = job.job_id or job.circuit.name
        if roll < profile.p_reject:
            self.stats.rejections += 1
            self._observe_fault("rejected", job_id=label)
            raise JobRejectedError(f"job {label!r} rejected at submission")
        result = self._local.submit(job)  # device clock advances here
        if roll < profile.p_reject + profile.p_timeout:
            self.stats.timeouts += 1
            self._observe_fault("timeout", job_id=label)
            raise JobTimeoutError(
                f"job {label!r} overran its execution slot"
            )
        if roll < profile.p_job_fault:
            self.stats.lost_results += 1
            self._observe_fault("result_lost", job_id=label)
            raise ResultLostError(f"result of job {label!r} lost in transit")
        self.stats.completed += 1
        return result

    def execute(self, job: Job) -> JobResult:
        """Submit one job; raises a transient fault or returns counts."""
        self._admit(1)
        self._apply_latency()
        return self._execute_one(job)

    def execute_batch(
        self,
        jobs: Sequence[Job],
        align_window: bool = False,
    ) -> BatchOutcome:
        """Submit a batch; per-job faults are reported positionally.

        Admission (window/rate-limit) is all-or-nothing for the batch —
        a rejection there raises. Past admission, each job fails
        independently, plus with ``p_batch_partial`` a random suffix of
        the batch is dropped wholesale (the jobs never execute), which
        is how real batch endpoints fail when a queue worker dies
        mid-batch.

        With ``align_window`` the batch first waits (simulated time) for
        a calibration window it fits into — see :meth:`align_window` —
        instead of risking a rate-limit bounce mid-window.
        """
        if not jobs:
            return BatchOutcome([], [])
        if align_window:
            self.align_window(len(jobs))
        self._admit(len(jobs))
        self._apply_latency()
        drop_from = len(jobs)
        if (
            self.profile.p_batch_partial > 0
            and len(jobs) > 1
            and float(self._fault_rng.random()) < self.profile.p_batch_partial
        ):
            drop_from = int(self._fault_rng.integers(1, len(jobs)))
            self.stats.batch_suffix_drops += 1
            self._observe_fault(
                "batch_suffix_drop", dropped=len(jobs) - drop_from
            )
        outcome = BatchOutcome()
        for index, job in enumerate(jobs):
            if index >= drop_from:
                self.stats.lost_results += 1
                outcome.results.append(None)
                outcome.errors.append(_dropped_error(job, drop_from))
                continue
            try:
                outcome.results.append(self._execute_one(job))
                outcome.errors.append(None)
            except ServiceError as exc:
                outcome.results.append(None)
                outcome.errors.append(exc)
        return outcome

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Device channel-cache counters (for executor instrumentation)."""
        return self._local.cache_stats()


def _dropped_error(job: Job, drop_from: int) -> ResultLostError:
    return ResultLostError(
        f"job {job.job_id or job.circuit.name!r} dropped "
        f"in a partial batch failure (cut at {drop_from})"
    )
