"""The BatchExecutor: instrumented job dispatch above any Backend.

This is the single choke point between the algorithm layer (ANGEL,
CDR, calibration, experiments, CLI) and whatever actually runs circuits.
Every submission gets a job id, a workload tag, and a line in the
:class:`ExecutorStats` ledger, so a run can answer "how many probe shots
did gate selection cost, and how much simulated device time did they
burn?" without grepping the device log.

Modes:

* ``"sequential"`` (default) — jobs in a batch run one at a time through
  the backend. With :class:`~repro.exec.backend.LocalBackend` this is
  bit-identical to the pre-executor ``device.run`` loop, which is what
  the paper-reproduction tests pin.
* ``"parallel"`` — batches are handed to the backend's parallel path
  (snapshot distributions on a process pool, then per-job sampling and
  clock accounting). Same end-of-batch device state, faster wall clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..exceptions import ExecutionError
from ..obs import runtime as obs
from .backend import Backend, LocalBackend
from .job import Job, JobResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.device import RigettiAspenDevice

__all__ = ["ExecutorStats", "BatchExecutor", "get_executor"]

_MODES = ("sequential", "parallel")


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
    #: Simulation-cache hierarchy counters (distribution memo hits skip
    #: simulation entirely; prefix hits replay a cached state snapshot).
    sim_dist_hits: int = 0
    sim_dist_misses: int = 0
    sim_prefix_hits: int = 0
    sim_prefix_misses: int = 0
    #: Gauge: prefix-snapshot bytes resident after the latest batch.
    sim_prefix_bytes: int = 0
    #: Cross-request dedup: distributions served from / published to a
    #: shared :class:`~repro.service.dedup.ProbeDistributionStore`.
    #: Distinct from ``sim_dist_hits`` — those are *same-request* memo
    #: hits inside one device's own cache; shared hits were computed by
    #: a different request at the identical physics state.
    sim_shared_hits: int = 0
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
    #: Parallel batches that lost their process pool and degraded to
    #: in-process computation (LocalBackend).
    pool_fallbacks: int = 0
    #: Gauge: live worker-pool size after the latest batch (0 = no pool).
    workers: int = 0
    #: Jobs the prefix-affinity scheduler placed next to a job sharing
    #: at least half their instruction prefix on the same worker.
    affinity_hits: int = 0
    #: Bytes shipped to pool workers (spawn payloads + epoch deltas +
    #: chunked circuit dispatch) — the IPC cost parallelism paid.
    ship_bytes: int = 0
    #: Probe batches that were merged into a larger submission via
    #: ``submit_grouped`` (counts source groups, not merged batches).
    coalesced_groups: int = 0
    #: Identical candidate streams deduplicated inside grouped batches
    #: (simulated once, result fanned out to every duplicate).
    batch_dedup_hits: int = 0
    #: Candidate clusters the batched engine stacked (and how many
    #: candidates rode those stacked contractions in total).
    batch_groups: int = 0
    batch_candidates: int = 0
    #: Probes served by the Clifford stabilizer fast path, and probes
    #: that were checked but fell back to the dense engine.
    clifford_fast_hits: int = 0
    clifford_fallbacks: int = 0
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
            "sim_prefix_hits": self.sim_prefix_hits,
            "sim_prefix_misses": self.sim_prefix_misses,
            "sim_prefix_bytes": self.sim_prefix_bytes,
            "sim_shared_hits": self.sim_shared_hits,
            "sim_shared_publishes": self.sim_shared_publishes,
            "retries": self.retries,
            "job_failures": self.job_failures,
            "breaker_trips": self.breaker_trips,
            "fallbacks": self.fallbacks,
            "pool_fallbacks": self.pool_fallbacks,
            "workers": self.workers,
            "affinity_hits": self.affinity_hits,
            "ship_bytes": self.ship_bytes,
            "coalesced_groups": self.coalesced_groups,
            "batch_dedup_hits": self.batch_dedup_hits,
            "batch_groups": self.batch_groups,
            "batch_candidates": self.batch_candidates,
            "clifford_fast_hits": self.clifford_fast_hits,
            "clifford_fallbacks": self.clifford_fallbacks,
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
        if (
            self.sim_dist_hits
            or self.sim_dist_misses
            or self.sim_prefix_hits
            or self.sim_prefix_misses
        ):
            lines.append(
                f"sim cache: {self.sim_dist_hits} dist hits / "
                f"{self.sim_dist_misses} misses, "
                f"{self.sim_prefix_hits} prefix hits / "
                f"{self.sim_prefix_misses} misses "
                f"({self.sim_prefix_bytes / 1024:.0f} KiB resident)"
            )
        if self.sim_shared_hits or self.sim_shared_publishes:
            lines.append(
                f"probe dedup: {self.sim_shared_hits} cross-request hits, "
                f"{self.sim_shared_publishes} published"
            )
        if self.coalesced_groups:
            lines.append(
                f"coalescing: {self.coalesced_groups} probe batches merged"
            )
        if self.batch_groups or self.batch_dedup_hits:
            lines.append(
                f"batched sim: {self.batch_groups} stacked clusters "
                f"({self.batch_candidates} candidates), "
                f"{self.batch_dedup_hits} in-batch dedup hits"
            )
        if self.clifford_fast_hits or self.clifford_fallbacks:
            lines.append(
                f"clifford fast path: {self.clifford_fast_hits} hits, "
                f"{self.clifford_fallbacks} dense fallbacks"
            )
        if self.workers or self.affinity_hits or self.ship_bytes:
            lines.append(
                f"worker pool: {self.workers} workers, "
                f"{self.affinity_hits} affinity hits, "
                f"{self.ship_bytes / 1024:.0f} KiB shipped"
            )
        if (
            self.retries
            or self.job_failures
            or self.breaker_trips
            or self.fallbacks
            or self.pool_fallbacks
        ):
            lines.append(
                f"reliability: {self.retries} retries, "
                f"{self.job_failures} job failures, "
                f"{self.breaker_trips} breaker trips, "
                f"{self.fallbacks} degraded links, "
                f"{self.pool_fallbacks} pool fallbacks"
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

    def __init__(
        self,
        backend: Backend,
        mode: str = "sequential",
        max_workers: Optional[int] = None,
    ) -> None:
        if mode not in _MODES:
            raise ExecutionError(
                f"unknown executor mode {mode!r}; expected one of {_MODES}"
            )
        self.backend = backend
        self.mode = mode
        self.max_workers = max_workers
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
                mode=self.mode,
                jobs=len(jobs),
                # Per-candidate histogram amortization: a grouped batch
                # collapses many candidates into few contractions, so
                # the wall-time histogram records per-unit time.
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
            results = submit(
                jobs,
                parallel=(self.mode == "parallel" and len(jobs) > 1),
                max_workers=self.max_workers,
            )
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
        self.stats.sim_prefix_hits += after.get(
            "prefix_hits", 0
        ) - before.get("prefix_hits", 0)
        self.stats.sim_prefix_misses += after.get(
            "prefix_misses", 0
        ) - before.get("prefix_misses", 0)
        self.stats.sim_prefix_bytes = after.get(
            "prefix_bytes", self.stats.sim_prefix_bytes
        )
        self.stats.sim_shared_hits += after.get(
            "dist_shared_hits", 0
        ) - before.get("dist_shared_hits", 0)
        self.stats.sim_shared_publishes += after.get(
            "dist_shared_publishes", 0
        ) - before.get("dist_shared_publishes", 0)
        self.stats.batch_dedup_hits += after.get(
            "batch_dedup_hits", 0
        ) - before.get("batch_dedup_hits", 0)
        self.stats.batch_groups += after.get(
            "batch_groups", 0
        ) - before.get("batch_groups", 0)
        self.stats.batch_candidates += after.get(
            "batch_candidates", 0
        ) - before.get("batch_candidates", 0)
        self.stats.clifford_fast_hits += after.get(
            "clifford_fast_hits", 0
        ) - before.get("clifford_fast_hits", 0)
        self.stats.clifford_fallbacks += after.get(
            "clifford_fallbacks", 0
        ) - before.get("clifford_fallbacks", 0)
        self.stats.pool_fallbacks += after.get(
            "pool_fallbacks", 0
        ) - before.get("pool_fallbacks", 0)
        self.stats.workers = after.get("workers", self.stats.workers)
        self.stats.affinity_hits += after.get(
            "affinity_hits", 0
        ) - before.get("affinity_hits", 0)
        self.stats.ship_bytes += after.get("ship_bytes", 0) - before.get(
            "ship_bytes", 0
        )
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
