"""Cloud-QPU service emulation: faults, windows, and the resilient client."""

import numpy as np
import pytest

from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.exceptions import ExecutionError
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.programs.ghz import ghz
from repro.service import (
    FAULT_PROFILES,
    CloudQPUService,
    FaultProfile,
    JobFailedError,
    JobRejectedError,
    RateLimitError,
    RemoteBackend,
    RetryPolicy,
    ServiceUnavailableError,
    ZERO_FAULTS,
    fault_profile,
)
from repro.service.errors import TransientServiceError


def _device(seed=31, n=5):
    return small_test_device(n, seed=seed)


def _native_ghz(device, n=4):
    compiled = transpile(ghz(n), device)
    sequence = NativeGateSequence.uniform(compiled.sites, "cz")
    return nativize(
        compiled.scheduled, sequence.as_site_map(), device.native_gates
    )


def _jobs(device, seeds, shots=100, tag="probe"):
    circuit = _native_ghz(device)
    return [Job(circuit, shots, seed=s, tag=tag) for s in seeds]


class TestFaultProfile:
    def test_presets_resolve(self):
        for name in ("none", "light", "heavy", "flaky"):
            assert fault_profile(name).name == name

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExecutionError):
            fault_profile("catastrophic")

    def test_flaky_preset_meets_acceptance_floor(self):
        """The stress preset injects >=10% per-job transient failures."""
        assert fault_profile("flaky").p_job_fault >= 0.10

    def test_probability_validation(self):
        with pytest.raises(ExecutionError):
            FaultProfile(p_reject=1.5)
        with pytest.raises(ExecutionError):
            FaultProfile(p_reject=0.6, p_timeout=0.6)

    def test_rate_limit_requires_window(self):
        with pytest.raises(ExecutionError):
            FaultProfile(max_jobs_per_window=10)

    def test_zero_faults_injects_nothing(self):
        assert not ZERO_FAULTS.injects_faults
        assert FAULT_PROFILES["none"] is ZERO_FAULTS


class TestCloudQPUService:
    def test_zero_fault_passthrough_matches_local(self):
        device_a, device_b = _device(), _device()
        service = CloudQPUService(device_a)
        results = [service.execute(j) for j in _jobs(device_a, (1, 2, 3))]
        local = LocalBackend(device_b).submit_batch(_jobs(device_b, (1, 2, 3)))
        assert [r.counts for r in results] == [r.counts for r in local]
        assert device_a.clock_us == device_b.clock_us
        assert service.stats.completed == 3
        assert service.stats.submitted == 3

    def test_fault_stream_is_seed_deterministic(self):
        def fault_kinds(seed):
            device = _device()
            service = CloudQPUService(
                device, fault_profile("flaky"), seed=seed
            )
            kinds = []
            for job in _jobs(device, range(20), shots=10):
                try:
                    service.execute(job)
                    kinds.append("ok")
                except TransientServiceError as exc:
                    kinds.append(type(exc).__name__)
            return kinds

        first, second = fault_kinds(9), fault_kinds(9)
        assert first == second
        assert set(first) != {"ok"}  # some faults did fire
        assert fault_kinds(10) != first  # a different seed, different stream

    def test_rejected_job_burns_no_device_time(self):
        device = _device()
        profile = FaultProfile(name="reject-all", p_reject=1.0)
        service = CloudQPUService(device, profile, seed=1)
        clock_before = device.clock_us
        with pytest.raises(JobRejectedError):
            service.execute(_jobs(device, (1,))[0])
        assert device.clock_us == clock_before
        assert service.stats.rejections == 1

    def test_timeout_burns_device_time(self):
        device = _device()
        profile = FaultProfile(name="timeout-all", p_timeout=1.0)
        service = CloudQPUService(device, profile, seed=1)
        clock_before = device.clock_us
        with pytest.raises(ExecutionError):
            service.execute(_jobs(device, (1,))[0])
        assert device.clock_us > clock_before
        assert service.stats.timeouts == 1

    def test_submission_latency_advances_clock_and_drifts(self):
        device = _device()
        profile = FaultProfile(name="latent", submission_latency_us=5_000.0)
        service = CloudQPUService(device, profile)
        epoch_before = device.drift_epoch
        service.execute(_jobs(device, (1,))[0])
        assert service.stats.queue_latency_us == 5_000.0
        assert device.drift_epoch > epoch_before

    def test_calibration_window_makes_service_unavailable(self):
        device = _device()
        profile = FaultProfile(
            name="windowed", window_us=10_000.0, recalibration_us=50_000.0
        )
        service = CloudQPUService(device, profile)
        jobs = _jobs(device, range(30), shots=50)
        saw_unavailable = 0
        for job in jobs:
            try:
                service.execute(job)
            except ServiceUnavailableError as exc:
                saw_unavailable += 1
                assert exc.retry_after_us > 0
                service.wait(exc.retry_after_us)
        assert saw_unavailable > 0
        assert service.stats.recalibrations > 0
        # After waiting out recalibration, submissions succeed again.
        assert service.execute(_jobs(device, (99,))[0]).counts

    def test_rate_limit_within_window(self):
        device = _device()
        profile = FaultProfile(
            name="throttled",
            window_us=1e12,
            max_jobs_per_window=2,
        )
        service = CloudQPUService(device, profile)
        jobs = _jobs(device, (1, 2, 3), shots=20)
        service.execute(jobs[0])
        service.execute(jobs[1])
        with pytest.raises(RateLimitError):
            service.execute(jobs[2])
        assert service.stats.rate_limited == 1

    def test_batch_suffix_drop_reports_positionally(self):
        device = _device()
        profile = FaultProfile(name="dropper", p_batch_partial=1.0)
        service = CloudQPUService(device, profile, seed=4)
        outcome = service.execute_batch(_jobs(device, (1, 2, 3, 4), shots=20))
        failed = outcome.failed_indices
        assert failed  # some suffix dropped
        assert failed == list(range(failed[0], 4))  # a contiguous suffix
        assert outcome.results[0] is not None  # first job always runs
        for index in failed:
            assert outcome.errors[index] is not None
        assert service.stats.batch_suffix_drops == 1

    def test_empty_batch(self):
        service = CloudQPUService(_device())
        outcome = service.execute_batch([])
        assert outcome.results == [] and outcome.errors == []


class _FlakyNTimes:
    """A service stub that fails the first N submissions, then delegates."""

    def __init__(self, device, failures, exc_factory=None):
        self._inner = CloudQPUService(device)
        self.device = device
        self.remaining = failures
        self.waited_us = []
        self._exc_factory = exc_factory or (
            lambda: JobRejectedError("synthetic rejection")
        )

    @property
    def name(self):
        return self._inner.name

    def wait(self, duration_us):
        self.waited_us.append(duration_us)
        self._inner.wait(duration_us)

    def execute(self, job):
        if self.remaining > 0:
            self.remaining -= 1
            raise self._exc_factory()
        return self._inner.execute(job)

    def execute_batch(self, jobs):
        from repro.service.cloud import BatchOutcome

        outcome = BatchOutcome()
        for job in jobs:
            try:
                outcome.results.append(self.execute(job))
                outcome.errors.append(None)
            except TransientServiceError as exc:
                outcome.results.append(None)
                outcome.errors.append(exc)
        return outcome


class TestRemoteBackendRetries:
    def test_retry_succeeds_after_transient_faults(self):
        device = _device()
        service = _FlakyNTimes(device, failures=2)
        backend = RemoteBackend(
            service, RetryPolicy(max_attempts=4, base_backoff_us=100.0)
        )
        result = backend.submit(_jobs(device, (7,))[0])
        assert sum(result.counts.values()) == 100
        assert backend.retries == 2
        assert backend.failures == 0
        assert len(service.waited_us) == 2  # one backoff per retry

    def test_backoff_grows_exponentially(self):
        device = _device()
        service = _FlakyNTimes(device, failures=3)
        backend = RemoteBackend(
            service,
            RetryPolicy(
                max_attempts=4,
                base_backoff_us=100.0,
                backoff_multiplier=2.0,
                jitter=0.0,
            ),
        )
        backend.submit(_jobs(device, (7,))[0])
        assert service.waited_us == [100.0, 200.0, 400.0]

    def test_jitter_is_seed_deterministic(self):
        def waits(seed):
            device = _device()
            service = _FlakyNTimes(device, failures=3)
            backend = RemoteBackend(
                service,
                RetryPolicy(max_attempts=4, base_backoff_us=100.0),
                seed=seed,
            )
            backend.submit(_jobs(device, (7,))[0])
            return service.waited_us

        assert waits(3) == waits(3)
        assert waits(3) != waits(4)

    def test_retry_exhaustion_raises_job_failed(self):
        device = _device()
        profile = FaultProfile(name="reject-all", p_reject=1.0)
        backend = RemoteBackend(
            CloudQPUService(device, profile, seed=1),
            RetryPolicy(max_attempts=3, base_backoff_us=10.0),
        )
        with pytest.raises(JobFailedError) as info:
            backend.submit(_jobs(device, (7,))[0])
        assert isinstance(info.value.cause, JobRejectedError)
        assert backend.retries == 2  # attempts - 1
        assert backend.failures == 1

    def test_deadline_cuts_retries_short(self):
        device = _device()
        profile = FaultProfile(name="reject-all", p_reject=1.0)
        backend = RemoteBackend(
            CloudQPUService(device, profile, seed=1),
            RetryPolicy(
                max_attempts=10,
                base_backoff_us=1_000.0,
                jitter=0.0,
                deadline_us=2_500.0,
            ),
        )
        with pytest.raises(JobFailedError):
            backend.submit(_jobs(device, (7,))[0])
        assert backend.deadline_exceeded == 1
        assert backend.retries < 9  # gave up well before the budget

    def test_honours_service_retry_after_hint(self):
        device = _device()
        service = _FlakyNTimes(
            device,
            failures=1,
            exc_factory=lambda: ServiceUnavailableError(
                "recalibrating", retry_after_us=9_999.0
            ),
        )
        backend = RemoteBackend(
            service,
            RetryPolicy(max_attempts=3, base_backoff_us=10.0, jitter=0.0),
        )
        backend.submit(_jobs(device, (7,))[0])
        assert service.waited_us == [9_999.0]


class TestCircuitBreaker:
    def _failing_backend(self, device, threshold=2, cooldown=50_000.0):
        profile = FaultProfile(name="reject-all", p_reject=1.0)
        service = CloudQPUService(device, profile, seed=1)
        backend = RemoteBackend(
            service,
            RetryPolicy(
                max_attempts=2,
                base_backoff_us=10.0,
                breaker_threshold=threshold,
                breaker_cooldown_us=cooldown,
            ),
        )
        return service, backend

    def test_breaker_trips_after_consecutive_failures(self):
        device = _device()
        service, backend = self._failing_backend(device)
        jobs = _jobs(device, (1, 2, 3), shots=20)
        for job in jobs[:2]:
            with pytest.raises(JobFailedError):
                backend.submit(job)
        assert backend.breaker_open
        assert backend.breaker_trips == 1
        submitted_before = service.stats.submitted
        with pytest.raises(JobFailedError):
            backend.submit(jobs[2])
        # Fast fail: the open breaker never touched the service.
        assert service.stats.submitted == submitted_before
        assert backend.fast_fails == 1

    def test_breaker_half_opens_after_cooldown(self):
        device = _device()
        service, backend = self._failing_backend(device, cooldown=1_000.0)
        for job in _jobs(device, (1, 2), shots=20):
            with pytest.raises(JobFailedError):
                backend.submit(job)
        assert backend.breaker_open
        service.wait(2_000.0)
        assert not backend.breaker_open  # cooldown elapsed: trial allowed
        # The trial fails again (service still rejecting) and re-opens.
        with pytest.raises(JobFailedError):
            backend.submit(_jobs(device, (3,))[0])
        assert backend.breaker_open

    def test_success_closes_breaker(self):
        device = _device()
        service = _FlakyNTimes(device, failures=4)
        backend = RemoteBackend(
            service,
            RetryPolicy(
                max_attempts=2,
                base_backoff_us=10.0,
                breaker_threshold=2,
                breaker_cooldown_us=100.0,
            ),
        )
        for job in _jobs(device, (1, 2), shots=20):
            with pytest.raises(JobFailedError):
                backend.submit(job)
        assert backend.breaker_open
        service.wait(200.0)
        result = backend.submit(_jobs(device, (3,))[0])
        assert result.counts
        assert not backend.breaker_open
        assert backend._consecutive_failures == 0


class TestPartialBatchRecovery:
    def test_only_failed_slots_are_resubmitted(self):
        device = _device()
        # First submission drops a suffix; the retry round is clean.
        profile = FaultProfile(name="dropper", p_batch_partial=1.0)
        service = CloudQPUService(device, profile, seed=4)
        backend = RemoteBackend(
            service, RetryPolicy(max_attempts=4, base_backoff_us=10.0)
        )
        jobs = _jobs(device, (1, 2, 3, 4), shots=20)
        results = backend.submit_batch_tolerant(jobs)
        assert all(r is not None for r in results)
        assert backend.resubmitted > 0
        # Each job produced counts exactly once in the final slots.
        assert [r.seed for r in results] == [1, 2, 3, 4]
        # The completed jobs of round one were not re-executed: total
        # service completions equal the job count (suffix jobs never ran
        # in round one).
        assert service.stats.completed == len(jobs)

    def test_all_or_nothing_submit_batch_raises_on_permanent_failure(self):
        device = _device()
        profile = FaultProfile(name="reject-all", p_reject=1.0)
        backend = RemoteBackend(
            CloudQPUService(device, profile, seed=1),
            RetryPolicy(max_attempts=2, base_backoff_us=10.0),
        )
        with pytest.raises(JobFailedError):
            backend.submit_batch(_jobs(device, (1, 2), shots=20))

    def test_empty_batch_through_remote(self):
        backend = RemoteBackend(CloudQPUService(_device()))
        assert backend.submit_batch([]) == []
        assert backend.submit_batch_tolerant([]) == []

    def test_singleton_batch_matches_local(self):
        device_a, device_b = _device(), _device()
        remote = RemoteBackend(CloudQPUService(device_a))
        local = LocalBackend(device_b)
        job_a = _jobs(device_a, (5,))[0]
        job_b = _jobs(device_b, (5,))[0]
        result_remote = remote.submit_batch([job_a])
        result_local = local.submit_batch([job_b])
        assert result_remote[0].counts == result_local[0].counts
        assert device_a.clock_us == device_b.clock_us


class TestZeroFaultBitEquality:
    def test_remote_matches_local_sequential_bit_for_bit(self):
        """Acceptance: zero faults => RemoteBackend is bit-identical."""
        device_a, device_b = _device(), _device()
        remote = BatchExecutor(RemoteBackend(CloudQPUService(device_a)))
        local = BatchExecutor(LocalBackend(device_b))
        results_remote = remote.submit_batch(_jobs(device_a, (1, 2, 3)))
        results_local = local.submit_batch(_jobs(device_b, (1, 2, 3)))
        assert [r.counts for r in results_remote] == [
            r.counts for r in results_local
        ]
        assert [r.started_at_us for r in results_remote] == [
            r.started_at_us for r in results_local
        ]
        assert device_a.clock_us == device_b.clock_us
        assert remote.backend.retries == 0
        assert remote.backend.failures == 0


class TestExecutorIntegration:
    def test_backend_accounts_retries_and_failures(self):
        """The remote backend counts retries and failures once; the
        executor above it counts only completed jobs."""
        device = _device()
        profile = FaultProfile(name="flaky-heavy", p_reject=0.5)
        backend = RemoteBackend(
            CloudQPUService(device, profile, seed=2),
            RetryPolicy(
                max_attempts=2,
                base_backoff_us=10.0,
                breaker_threshold=1_000,
            ),
        )
        executor = BatchExecutor(backend)
        results = executor.submit_batch(
            _jobs(device, range(12), shots=20), allow_failures=True
        )
        failed = sum(1 for r in results if r is None)
        assert failed > 0
        assert backend.retries > 0
        assert backend.failures == failed
        assert executor.stats.jobs == 12 - failed  # only completed counted
        assert backend.reliability_stats()["retries"] == backend.retries
        assert "retries" not in executor.stats.snapshot()

    def test_allow_failures_without_tolerant_backend_is_plain(self):
        device = _device()
        executor = BatchExecutor(LocalBackend(device))
        results = executor.submit_batch(
            _jobs(device, (1, 2)), allow_failures=True
        )
        assert all(r is not None for r in results)
