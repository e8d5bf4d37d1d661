"""The BatchExecutor: instrumented job dispatch above any Backend.

This is the single choke point between the algorithm layer (ANGEL,
CDR, calibration, experiments, CLI) and whatever actually runs circuits.
Every submission gets a job id, a workload tag, and a line in the
:class:`ExecutorStats` ledger, so a run can answer "how many probe shots
did gate selection cost, and how much simulated device time did they
burn?" without grepping the device log.

Jobs in a batch run one at a time through the backend, in order, on
one drifting device: the discipline of the paper's probing loop. With
:class:`~repro.exec.backend.LocalBackend` this is bit-identical to a
``device.run`` loop, which is what the paper-reproduction tests pin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..obs import runtime as obs
from .backend import Backend, LocalBackend
from .job import Job, JobResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.device import RigettiAspenDevice

__all__ = ["ExecutorStats", "BatchExecutor", "get_executor"]


@dataclass
class ExecutorStats:
    """Cumulative accounting for one executor.

    ``device_time_us`` is *simulated* device occupancy (the clock the
    drift model sees); ``wall_time_s`` is real host time spent inside
    ``submit``/``submit_batch`` calls.
    """

    jobs: int = 0
    batches: int = 0
    shots: int = 0
    device_time_us: float = 0.0
    wall_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Exact distributions served from a shared
    #: :class:`~repro.service.dedup.ProbeDistributionStore` (computed by
    #: another request at the identical physics state) and simulated.
    sim_dist_hits: int = 0
    sim_dist_misses: int = 0
    #: Simulated distributions published to the shared store.
    sim_shared_publishes: int = 0
    #: Transient-fault resubmissions performed by a resilient backend.
    retries: int = 0
    #: Jobs that failed permanently (retry budget/deadline/breaker).
    job_failures: int = 0
    #: Circuit-breaker trips observed at the backend.
    breaker_trips: int = 0
    #: Search-level degradations: links whose probe jobs failed and fell
    #: back to the calibration-fidelity choice (recorded by ANGEL).
    fallbacks: int = 0
    #: Probe batches that were merged into a larger submission via
    #: ``submit_grouped`` (counts source groups, not merged batches).
    coalesced_groups: int = 0
    jobs_by_tag: Dict[str, int] = field(default_factory=dict)
    shots_by_tag: Dict[str, int] = field(default_factory=dict)
    wall_time_by_tag_s: Dict[str, float] = field(default_factory=dict)

    def record(
        self,
        results: Sequence[JobResult],
        wall_time_s: float,
        batch: bool,
    ) -> None:
        self.jobs += len(results)
        if batch:
            self.batches += 1
        self.wall_time_s += wall_time_s
        for result in results:
            self.shots += result.shots
            self.device_time_us += result.duration_us
            tag = result.tag or "untagged"
            self.jobs_by_tag[tag] = self.jobs_by_tag.get(tag, 0) + 1
            self.shots_by_tag[tag] = (
                self.shots_by_tag.get(tag, 0) + result.shots
            )
        if results:
            # Host time is attributed to the batch's (single) tag; mixed
            # batches charge the first tag, which never happens in practice.
            tag = results[0].tag or "untagged"
            self.wall_time_by_tag_s[tag] = (
                self.wall_time_by_tag_s.get(tag, 0.0) + wall_time_s
            )

    def snapshot(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "batches": self.batches,
            "shots": self.shots,
            "device_time_us": self.device_time_us,
            "wall_time_s": self.wall_time_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "sim_dist_hits": self.sim_dist_hits,
            "sim_dist_misses": self.sim_dist_misses,
            "sim_shared_publishes": self.sim_shared_publishes,
            "retries": self.retries,
            "job_failures": self.job_failures,
            "breaker_trips": self.breaker_trips,
            "fallbacks": self.fallbacks,
            "coalesced_groups": self.coalesced_groups,
            "jobs_by_tag": dict(self.jobs_by_tag),
            "shots_by_tag": dict(self.shots_by_tag),
            "wall_time_by_tag_s": dict(self.wall_time_by_tag_s),
        }

    def to_text(self) -> str:
        lines = [
            f"jobs: {self.jobs} ({self.batches} batches), "
            f"shots: {self.shots}",
            f"device time: {self.device_time_us / 1e6:.3f} s simulated, "
            f"host time: {self.wall_time_s:.3f} s",
            f"channel cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses",
        ]
        if self.sim_dist_hits or self.sim_dist_misses:
            lines.append(
                f"sim cache: {self.sim_dist_misses} distributions simulated"
            )
        if self.sim_dist_hits or self.sim_shared_publishes:
            lines.append(
                f"probe dedup: {self.sim_dist_hits} cross-request hits, "
                f"{self.sim_shared_publishes} published"
            )
        if self.coalesced_groups:
            lines.append(
                f"coalescing: {self.coalesced_groups} probe batches merged"
            )
        if (
            self.retries
            or self.job_failures
            or self.breaker_trips
            or self.fallbacks
        ):
            lines.append(
                f"reliability: {self.retries} retries, "
                f"{self.job_failures} job failures, "
                f"{self.breaker_trips} breaker trips, "
                f"{self.fallbacks} degraded links"
            )
        for tag in sorted(self.jobs_by_tag):
            lines.append(
                f"  {tag}: {self.jobs_by_tag[tag]} jobs, "
                f"{self.shots_by_tag.get(tag, 0)} shots, "
                f"{self.wall_time_by_tag_s.get(tag, 0.0):.3f} s host"
            )
        return "\n".join(lines)


class BatchExecutor:
    """Submit jobs (singly or in batches) through a Backend, with stats."""

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        self.stats = ExecutorStats()
        self._counter = 0

    # ------------------------------------------------------------------
    def _next_id(self, tag: str) -> str:
        self._counter += 1
        return f"{tag or 'job'}-{self._counter:05d}"

    def _cache_counters(self) -> Dict[str, int]:
        probe = getattr(self.backend, "cache_stats", None)
        if probe is None:
            return {"hits": 0, "misses": 0}
        return probe()

    def _reliability_counters(self) -> Dict[str, int]:
        probe = getattr(self.backend, "reliability_stats", None)
        if probe is None:
            return {}
        return probe()

    def submit(self, job: Job) -> JobResult:
        """Run one job immediately; returns its result."""
        return self.submit_batch([job])[0]

    def submit_batch(
        self, jobs: Sequence[Job], allow_failures: bool = False
    ) -> List[Optional[JobResult]]:
        """Run a batch of jobs; results come back in submission order.

        With ``allow_failures`` and a backend that supports per-job
        failure reporting (``submit_batch_tolerant``, e.g. the remote
        backend), permanently failed jobs come back as ``None`` slots
        instead of raising — the caller decides how to degrade. Without
        it, a backend that cannot fail per-job (the local device) is
        submitted normally and every slot is a result.
        """
        if not jobs:
            return []
        jobs = [
            job if job.job_id else job.with_id(self._next_id(job.tag))
            for job in jobs
        ]
        tolerant = (
            getattr(self.backend, "submit_batch_tolerant", None)
            if allow_failures
            else None
        )
        tracer = obs.active_tracer()
        span = (
            tracer.span(
                "exec.batch",
                backend=self.backend.name,
                jobs=len(jobs),
                # The wall-time histogram records the batch's time per
                # job, once per job.
                units=len(jobs),
                tag=jobs[0].tag or "untagged",
            )
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            before = self._cache_counters()
            reliability_before = self._reliability_counters()
            start = time.perf_counter()
            submit = (
                tolerant if tolerant is not None else self.backend.submit_batch
            )
            results = submit(jobs)
            elapsed = time.perf_counter() - start
            after = self._cache_counters()
            reliability_after = self._reliability_counters()
            completed = [result for result in results if result is not None]
            if tracer:
                span.set(
                    shots=sum(r.shots for r in completed),
                    device_time_job_us=sum(
                        r.duration_us for r in completed
                    ),
                    cache_hits_delta=after["hits"] - before["hits"],
                    cache_misses_delta=after["misses"] - before["misses"],
                    failed=len(results) - len(completed),
                )
        self.stats.record(completed, elapsed, batch=len(jobs) > 1)
        self.stats.cache_hits += after["hits"] - before["hits"]
        self.stats.cache_misses += after["misses"] - before["misses"]
        self.stats.sim_dist_hits += after.get("dist_hits", 0) - before.get(
            "dist_hits", 0
        )
        self.stats.sim_dist_misses += after.get(
            "dist_misses", 0
        ) - before.get("dist_misses", 0)
        self.stats.sim_shared_publishes += after.get(
            "dist_shared_publishes", 0
        ) - before.get("dist_shared_publishes", 0)
        self.stats.retries += reliability_after.get(
            "retries", 0
        ) - reliability_before.get("retries", 0)
        self.stats.job_failures += reliability_after.get(
            "failures", 0
        ) - reliability_before.get("failures", 0)
        self.stats.breaker_trips += reliability_after.get(
            "breaker_trips", 0
        ) - reliability_before.get("breaker_trips", 0)
        registry = obs.active_registry()
        if registry is not None:
            # Absorb the cumulative ledgers after every batch so the
            # registry is live, not just an end-of-run export.
            registry.ingest_executor(self.stats)
            registry.ingest_cache(after)
        return list(results)

    def submit_grouped(
        self,
        groups: Sequence[Sequence[Job]],
        allow_failures: bool = False,
    ) -> List[List[Optional[JobResult]]]:
        """Merge several job groups into one batch; demux per group.

        This is the coalescing seam the multi-tenant service uses: probe
        batches that would otherwise be separate submissions are merged
        into a single backend batch (one span, one service-window
        admission), then results are sliced back to the source groups in
        submission order. Jobs still execute in the flattened order, so
        for a sequential backend the device-state trajectory is
        bit-identical to submitting the groups one after another.
        """
        groups = [list(group) for group in groups]
        flat = [job for group in groups for job in group]
        if not flat:
            return [[] for _ in groups]
        results = self.submit_batch(flat, allow_failures=allow_failures)
        self.stats.coalesced_groups += sum(
            1 for group in groups if group
        )
        demuxed: List[List[Optional[JobResult]]] = []
        offset = 0
        for group in groups:
            demuxed.append(list(results[offset : offset + len(group)]))
            offset += len(group)
        return demuxed


def get_executor(device: "RigettiAspenDevice") -> BatchExecutor:
    """The shared sequential executor for ``device`` (created on demand).

    One executor per device, so every caller (ANGEL, CDR, calibration,
    experiments, CLI) shares a single stats ledger for the same
    hardware. It is held by the device itself: the executor's backend
    references the device, so any registry keyed by the device would
    keep it — and its caches — alive forever.
    """
    executor = device.shared_executor
    if executor is None:
        executor = device.shared_executor = BatchExecutor(
            LocalBackend(device)
        )
    return executor
