"""Execution backends: where jobs actually run.

:class:`Backend` is the protocol the :class:`~repro.exec.executor.
BatchExecutor` drives; :class:`LocalBackend` implements it on top of the
in-process :class:`~repro.device.device.RigettiAspenDevice`. The seam is
deliberately narrow — submit jobs, get counts — so later PRs can slot in
remote/queued backends (the paper ran on Amazon Braket) or shard across
several simulated chips without touching the algorithm layer.

``LocalBackend`` offers two batch disciplines:

* *sequential* — jobs run strictly one after another through
  ``device.run``; the device clock advances (and noise drifts) between
  jobs exactly as in the paper's probing loop. Bit-identical to calling
  the device directly.
* *parallel* — all jobs' exact output distributions are computed against
  the device's **current parameter snapshot**, then sampled and
  accounted job-by-job. This mirrors a cloud batch submission where
  every circuit in the batch is compiled and run against one
  calibration snapshot. The clock/drift accounting sequence is
  identical to sequential execution (same advance calls in the same
  order), so the device *ends* in the same state; only the within-batch
  drift seen by later jobs differs.

The parallel discipline runs on a **persistent**
:class:`~repro.exec.pool.WorkerPool` owned by the backend: workers are
spawned once, hold long-lived device replicas with their own cache
hierarchies, and are kept coherent through epoch-delta synchronization
— so pooled counts are bit-identical to computing the same snapshot
distributions in-process (``max_workers=1``, or any environment where
process pools are unavailable and the backend degrades in-process).
"""

from __future__ import annotations

import warnings
from pickle import PicklingError
from typing import Dict, List, Optional, Protocol, Sequence, TYPE_CHECKING

import numpy as np

from ..obs import runtime as obs
from ..sim.sampler import sample_distribution
from .job import Job, JobResult
from .pool import WorkerPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.device import RigettiAspenDevice

__all__ = ["Backend", "LocalBackend"]

#: Pool-infrastructure failures that degrade to in-process computation.
#: Anything else is a real simulation error and propagates.
_POOL_ENVIRONMENT_ERRORS = (
    OSError,
    EOFError,
    PicklingError,
    ImportError,
)


class Backend(Protocol):
    """Anything that can turn Jobs into JobResults."""

    @property
    def name(self) -> str:  # pragma: no cover - protocol
        ...

    def submit(self, job: Job) -> JobResult:  # pragma: no cover - protocol
        ...

    def submit_batch(
        self,
        jobs: Sequence[Job],
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> List[JobResult]:  # pragma: no cover - protocol
        ...


class LocalBackend:
    """A Backend wrapping the in-process simulated Aspen device.

    Args:
        device: The device jobs run on.
        affinity: Group prefix-sharing parallel jobs onto the same pool
            worker (see :class:`~repro.exec.pool.WorkerPool`); off falls
            back to round-robin scheduling.
    """

    def __init__(
        self, device: "RigettiAspenDevice", affinity: bool = True
    ) -> None:
        self.device = device
        self.affinity = affinity
        #: Parallel batches that fell back to in-process computation
        #: because a worker pool could not be created or fed.
        self.pool_fallbacks = 0
        #: Times a worker pool was spawned for this backend (the
        #: persistence contract: one spawn per backend per sweep unless
        #: the pool is closed or resized in between).
        self.pool_spawns = 0
        self._pool: Optional[WorkerPool] = None
        # One-shot fallback warning, per backend instance; reset on
        # pool (re)creation so a rebuilt pool that degrades warns again.
        self._pool_warned = False
        # Harvested pool accounting; survives pool close/rebuild so the
        # executor's before/after diffs never go backwards.
        self._affinity_hits = 0
        self._ship_bytes = 0
        self._worker_cache_totals: Dict[str, int] = {}

    @property
    def name(self) -> str:
        return f"local[{self.device.name}]"

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> Optional[WorkerPool]:
        """The live worker pool, if one has been spawned."""
        if self._pool is not None and self._pool.closed:
            self._pool = None
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later parallel
        batch lazily rebuilds it)."""
        if self._pool is not None:
            self._ship_bytes += self._pool.ship_bytes
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "LocalBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self, max_workers: Optional[int]) -> WorkerPool:
        """The persistent pool, created lazily and reused across
        batches; rebuilt only when closed or explicitly resized."""
        pool = self.pool
        if pool is not None and (
            max_workers is None or max_workers == pool.num_workers
        ):
            return pool
        self.close()
        pool = WorkerPool(
            self.device, num_workers=max_workers, affinity=self.affinity
        )
        self._pool = pool
        self.pool_spawns += 1
        self._pool_warned = False
        return pool

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobResult:
        """Run one job through ``device.run`` (clock advances after it)."""
        tracer = obs.active_tracer()
        span = (
            tracer.span(
                "backend.job",
                job_id=job.job_id,
                tag=job.tag or "untagged",
                shots=job.shots,
            )
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            before = self._trace_cache_counters() if tracer else None
            counts = self.device.run(
                job.circuit,
                job.shots,
                seed=job.seed,
                job_id=job.job_id,
                tag=job.tag,
            )
            record = self.device.execution_log[-1]
            if tracer:
                after = self._trace_cache_counters()
                span.set(
                    duration_us=record.duration_us,
                    started_at_us=record.started_at_us,
                    cache_hits_delta=after[0] - before[0],
                    cache_misses_delta=after[1] - before[1],
                    sim_dist_hits_delta=after[2] - before[2],
                    sim_prefix_hits_delta=after[3] - before[3],
                )
        return JobResult(
            job_id=job.job_id,
            counts=counts,
            shots=job.shots,
            tag=job.tag,
            seed=job.seed,
            started_at_us=record.started_at_us,
            duration_us=record.duration_us,
            qubits=record.qubits,
        )

    def _trace_cache_counters(self):
        """(channel hits, channel misses, dist hits, prefix hits) — the
        per-job cache attribution sampled around a traced submission."""
        cache = self.device.channel_cache
        hits = misses = dist_hits = prefix_hits = 0
        if cache is not None:
            hits, misses = cache.hits, cache.misses
        sim = getattr(self.device, "sim_cache", None)
        if sim is not None:
            stats = sim.stats()
            dist_hits = stats.get("dist_hits", 0)
            prefix_hits = stats.get("prefix_hits", 0)
        return (hits, misses, dist_hits, prefix_hits)

    def submit_batch(
        self,
        jobs: Sequence[Job],
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> List[JobResult]:
        if not jobs:
            return []
        if not parallel or len(jobs) == 1:
            return [self.submit(job) for job in jobs]
        tracer = obs.active_tracer()
        span = (
            tracer.span("backend.snapshot_batch", jobs=len(jobs))
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            distributions = self._batch_distributions(jobs, max_workers)
        results: List[JobResult] = []
        for job, distribution in zip(jobs, distributions):
            rng = (
                np.random.default_rng(job.seed)
                if job.seed is not None
                else self.device.sample_rng
            )
            counts = sample_distribution(distribution, job.shots, rng)
            record = self.device.log_execution(
                job.circuit,
                job.shots,
                seed=job.seed,
                job_id=job.job_id,
                tag=job.tag,
            )
            if tracer:
                # Snapshot batches compute distributions collectively
                # (in the pool span above); still emit one span per job
                # so a trace covers every probe regardless of mode.
                with tracer.span(
                    "backend.job",
                    job_id=job.job_id,
                    tag=job.tag or "untagged",
                    shots=job.shots,
                ) as job_span:
                    job_span.set(
                        duration_us=record.duration_us,
                        started_at_us=record.started_at_us,
                        snapshot_batch=True,
                    )
            results.append(
                JobResult(
                    job_id=job.job_id,
                    counts=counts,
                    shots=job.shots,
                    tag=job.tag,
                    seed=job.seed,
                    started_at_us=record.started_at_us,
                    duration_us=record.duration_us,
                    qubits=record.qubits,
                )
            )
        return results

    def submit_batch_grouped(
        self,
        groups: Sequence[Sequence[Job]],
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> List[List[JobResult]]:
        """Run several job groups as one merged batch, demuxed per group.

        Jobs execute in the flattened submission order, so the device
        clock/drift trajectory matches submitting the groups back to
        back; the merge only changes batching granularity (one snapshot
        round / one pool dispatch instead of several).
        """
        groups = [list(group) for group in groups]
        flat = [job for group in groups for job in group]
        results = self.submit_batch(
            flat, parallel=parallel, max_workers=max_workers
        )
        demuxed: List[List[JobResult]] = []
        offset = 0
        for group in groups:
            demuxed.append(results[offset : offset + len(group)])
            offset += len(group)
        return demuxed

    def _batch_distributions(
        self, jobs: Sequence[Job], max_workers: Optional[int]
    ) -> List[Dict[str, float]]:
        """Exact distributions for all jobs against the current snapshot.

        Dispatches to the persistent worker pool (density-matrix jobs
        are CPU-bound and independent); computes in-process when a
        single worker is requested, or when pools are unavailable
        (restricted environments) — both paths are bit-identical by the
        epoch-delta synchronization contract. Either way each circuit
        goes through ``device.noisy_distribution``, so the simulation
        cache's distribution memo serves duplicates within the batch.
        """
        if max_workers is not None and max_workers < 2:
            return [
                self.device.noisy_distribution(job.circuit) for job in jobs
            ]
        try:
            pool = self._ensure_pool(max_workers)
            distributions, info = pool.run([job.circuit for job in jobs])
        except _POOL_ENVIRONMENT_ERRORS as exc:
            # Pool creation/feeding can fail in sandboxed environments;
            # the snapshot semantics do not depend on parallelism. Any
            # other exception is a real simulation error and propagates.
            self.close()
            self.pool_fallbacks += 1
            obs.event("pool.fallback", error=type(exc).__name__)
            if not self._pool_warned:
                self._pool_warned = True
                warnings.warn(
                    "worker pool unavailable "
                    f"({type(exc).__name__}: {exc}); computing batch "
                    "distributions in-process (counted in pool_fallbacks)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return [
                self.device.noisy_distribution(job.circuit) for job in jobs
            ]
        self._affinity_hits += info.affinity_hits
        self._ship_bytes += info.ship_bytes
        for key, value in info.cache_deltas.items():
            self._worker_cache_totals[key] = (
                self._worker_cache_totals.get(key, 0) + value
            )
        return distributions

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Channel-cache, simulation-cache, and pool counters, merged.

        Channel-cache keys are unprefixed (``hits``/``misses``/...);
        simulation-cache keys carry their level's prefix
        (``dist_*``/``prefix_*``/``lower_*``) so the executor can diff
        each level independently. Worker-side counters harvested from
        the pool are *added* into the same keys — a prefix hit inside a
        worker is a prefix hit — and the pool itself contributes
        ``workers`` (gauge), ``affinity_hits``, and ``ship_bytes``.
        """
        cache = self.device.channel_cache
        if cache is None:
            stats = {
                "hits": 0,
                "misses": 0,
                "entries": 0,
                "evictions": 0,
                "invalidations": 0,
            }
        else:
            stats = cache.stats()
        sim = getattr(self.device, "sim_cache", None)
        if sim is not None:
            stats.update(sim.stats())
        for key, value in self._worker_cache_totals.items():
            stats[key] = stats.get(key, 0) + value
        pool = self.pool
        live_ship = pool.ship_bytes if pool is not None else 0
        stats["workers"] = pool.num_workers if pool is not None else 0
        stats["affinity_hits"] = self._affinity_hits
        stats["ship_bytes"] = self._ship_bytes + live_ship
        stats["pool_spawns"] = self.pool_spawns
        stats["pool_fallbacks"] = self.pool_fallbacks
        return stats
