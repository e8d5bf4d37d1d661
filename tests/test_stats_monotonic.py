"""Regression guards on the stats ledgers: monotonicity and rendering.

``ExecutorStats`` and the device caches' ``stats()`` are cumulative
ledgers — a closing context adds them to the metrics registry, whose
counters only move forward, so a counter that ever decreases across
batches corrupts the sum. Gauges (cache ``entries``/``epoch``) are
exempt: they report current state, not accumulation.

The formatting guard pins :func:`~repro.experiments.ledgers_to_text`
against field loss or duplication: with pairwise-distinct sentinel
values, every rendered field's value must appear in the text exactly
once.
"""

import re

import pytest

from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.exec.executor import ExecutorStats
from repro.experiments import ledgers_to_text
from repro.programs.ghz import ghz

_HOUR_US = 3_600e6

#: Ledger keys that are gauges (point-in-time readings), not counters.
_STATS_GAUGES = frozenset()
_CACHE_GAUGES = frozenset({"entries", "epoch"})


def _flatten(ledger, prefix=""):
    flat = {}
    for key, value in ledger.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = value
    return flat


def _native_jobs(device, seed0):
    compiled = transpile(ghz(3), device)
    jobs = []
    for index, gate in enumerate(("cz", "xy", "cphase")):
        sequence = NativeGateSequence.uniform(compiled.sites, gate)
        circuit = nativize(
            compiled.scheduled,
            sequence.as_site_map(),
            device.native_gates,
            name_suffix=f"_{gate}",
        )
        jobs.append(Job(circuit, 128, seed=seed0 + index, tag="probe"))
    return jobs


def _assert_monotonic(before, after, gauges, label):
    for key, value in before.items():
        base = key.rsplit(".", 1)[-1]
        if base in gauges:
            continue
        assert after.get(key, 0) >= value, (
            f"{label} counter {key} went backwards: "
            f"{value} -> {after.get(key, 0)}"
        )


class TestMonotonicity:
    def test_executor_stats_never_decrease_across_batches(self):
        device = small_test_device(seed=5)
        executor = BatchExecutor(LocalBackend(device))
        snapshots = []
        for round_number in range(4):
            executor.submit_batch(_native_jobs(device, 100 * round_number))
            if round_number == 1:
                # A drift boundary invalidates caches; the cumulative
                # ledgers must still only move forward.
                device.advance_time(2.0 * _HOUR_US)
            snapshots.append(_flatten(executor.stats.snapshot()))
        for before, after in zip(snapshots, snapshots[1:]):
            _assert_monotonic(before, after, _STATS_GAUGES, "ExecutorStats")

    def test_cache_stats_never_decrease_across_batches(self):
        device = small_test_device(seed=5)
        executor = BatchExecutor(LocalBackend(device))
        snapshots = []
        for round_number in range(4):
            executor.submit_batch(_native_jobs(device, 100 * round_number))
            if round_number == 1:
                device.advance_time(2.0 * _HOUR_US)
            cache = device.channel_cache.stats()
            cache.update(device.sim_cache.stats())
            snapshots.append(_flatten(cache))
        for before, after in zip(snapshots, snapshots[1:]):
            _assert_monotonic(before, after, _CACHE_GAUGES, "cache stats")

    def test_batches_make_progress(self):
        """The monotonic sweep above is not vacuous: the counting
        ledgers actually grow between rounds."""
        device = small_test_device(seed=5)
        executor = BatchExecutor(LocalBackend(device))
        executor.submit_batch(_native_jobs(device, 0))
        first = executor.stats.jobs
        executor.submit_batch(_native_jobs(device, 100))
        assert executor.stats.jobs == first + 3
        assert executor.stats.shots == 2 * 3 * 128


class TestRequestHandleTimestamps:
    """The service's queue-wait accounting is measured, not inferred:
    every :class:`~repro.service.RequestHandle` carries monotonic-clock
    stamps for enqueue (``submitted_at``), first scheduler grant
    (``scheduled_at``), and completion (``completed_at``), and the
    derived durations must be non-negative and mutually consistent."""

    def test_timestamps_monotonic_and_durations_consistent(self):
        from repro.service import AngelService, RequestSpec

        spec = RequestSpec(
            program="GHZ_n4", shots=32, probe_shots=8, drift_hours=0.5
        )
        service = AngelService(num_workers=2)
        try:
            handles = [
                service.submit("default", spec),
                service.submit(
                    "default",
                    spec.__class__(
                        program="BV_n4",
                        shots=32,
                        probe_shots=8,
                        drift_hours=0.5,
                    ),
                ),
            ]
            outcomes = [handle.result() for handle in handles]
        finally:
            service.close()
        for handle, outcome in zip(handles, outcomes):
            assert handle.scheduled_at is not None
            assert handle.completed_at is not None
            assert handle.submitted_at <= handle.scheduled_at
            assert handle.scheduled_at <= handle.completed_at
            assert handle.queue_wait_s >= 0.0
            assert handle.service_time_s >= 0.0
            assert handle.latency_s >= 0.0
            assert (
                handle.queue_wait_s + handle.service_time_s
                == pytest.approx(handle.latency_s, abs=1e-6)
            )
            # The outcome carries the same ledger the spans report.
            assert outcome.queue_wait_s == handle.queue_wait_s
            assert outcome.latency_s == handle.latency_s
            assert outcome.service_time_s == handle.service_time_s
            assert outcome.device_time_us > 0.0

    def test_live_handle_durations_are_non_negative(self):
        """Before completion the derived durations must never go
        negative (they fall back to the live clock)."""
        from repro.service.angel_service import RequestHandle

        handle = RequestHandle.__new__(RequestHandle)
        handle.submitted_at = 100.0
        handle.scheduled_at = None
        handle.completed_at = None
        assert handle.queue_wait_s >= 0.0
        assert handle.service_time_s == 0.0
        assert handle.latency_s >= 0.0
        handle.scheduled_at = 101.5
        handle.completed_at = 104.25
        assert handle.queue_wait_s == pytest.approx(1.5)
        assert handle.service_time_s == pytest.approx(2.75)
        assert handle.latency_s == pytest.approx(4.25)


class TestToTextRendering:
    def test_every_field_renders_exactly_once(self):
        """With pairwise-distinct sentinels, each rendered field's value
        appears in the ``--stats`` text exactly once."""
        ledgers = {
            "exec": ExecutorStats(
                jobs=101,
                batches=103,
                shots=107,
                device_time_us=109_000_000.0,  # renders as 109.000
                wall_time_s=113.25,  # renders as 113.250
                fallbacks=179,
                jobs_by_tag={"probe": 199},
                shots_by_tag={"probe": 211},
                wall_time_by_tag_s={"probe": 223.125},
            ).snapshot(),
            "cache": {
                "hits": 127,
                "misses": 131,
                "dist_hits": 137,
                "dist_misses": 139,
                "dist_shared_publishes": 157,
            },
            "remote": {
                "retries": 163,
                "failures": 167,
                "breaker_trips": 173,
            },
        }
        text = ledgers_to_text(ledgers)
        expected = {
            "jobs": "101",
            "batches": "103",
            "shots": "107",
            "device_time_us": "109.000",
            "wall_time_s": "113.250",
            "cache.hits": "127",
            "cache.misses": "131",
            "cache.dist_hits": "137",
            "cache.dist_misses": "139",
            "cache.dist_shared_publishes": "157",
            "remote.retries": "163",
            "remote.failures": "167",
            "remote.breaker_trips": "173",
            "fallbacks": "179",
            "jobs_by_tag.probe": "199",
            "shots_by_tag.probe": "211",
            "wall_time_by_tag_s.probe": "223.125",
        }
        for fieldname, sentinel in expected.items():
            occurrences = len(
                re.findall(rf"(?<![\d.]){re.escape(sentinel)}(?![\d.])", text)
            )
            assert occurrences == 1, (
                f"{fieldname} (sentinel {sentinel}) rendered "
                f"{occurrences} times in:\n{text}"
            )

    def test_quiet_sections_are_suppressed(self):
        """All-zero optional sections (sim cache / reliability) stay
        out of the rendering; the core lines remain."""
        text = ledgers_to_text(
            {
                "exec": ExecutorStats(jobs=2, batches=1, shots=64).snapshot(),
                "cache": {
                    "hits": 0,
                    "misses": 0,
                    "dist_hits": 0,
                    "dist_misses": 0,
                    "dist_shared_publishes": 0,
                },
            }
        )
        assert "jobs: 2" in text
        assert "channel cache: 0 hits / 0 misses" in text
        assert "sim cache" not in text
        assert "reliability" not in text

    def test_registry_text_renders_each_metric_once(self):
        """The metrics registry's own renderer never duplicates names."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("exec.jobs").add(3)
        registry.counter("exec.shots").add(64)
        registry.gauge("cache.entries").set(2)
        registry.histogram("span.job.wall_s").observe(0.25)
        lines = registry.to_text().splitlines()
        names = [line.split()[0] for line in lines if line.strip()]
        assert len(names) == len(set(names))
        assert set(names) == {
            "exec.jobs",
            "exec.shots",
            "cache.entries",
            "span.job.wall_s",
        }
