"""Execution backends: where jobs actually run.

:class:`Backend` is the protocol the :class:`~repro.exec.executor.
BatchExecutor` drives; :class:`LocalBackend` implements it on top of the
in-process :class:`~repro.device.device.RigettiAspenDevice`. The seam is
deliberately narrow — submit jobs, get counts — so later PRs can slot in
remote/queued backends (the paper ran on Amazon Braket) or shard across
several simulated chips without touching the algorithm layer.

``LocalBackend`` runs a batch strictly one job after another through
``device.run``: the device clock advances (and noise drifts) between
jobs exactly as in the paper's probing loop, bit-identical to calling
the device directly.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Sequence, TYPE_CHECKING

from ..obs import runtime as obs
from .job import Job, JobResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.device import RigettiAspenDevice

__all__ = ["Backend", "LocalBackend"]


class Backend(Protocol):
    """Anything that can turn Jobs into JobResults."""

    @property
    def name(self) -> str:  # pragma: no cover - protocol
        ...

    def submit(self, job: Job) -> JobResult:  # pragma: no cover - protocol
        ...

    def submit_batch(
        self, jobs: Sequence[Job]
    ) -> List[JobResult]:  # pragma: no cover - protocol
        ...


class LocalBackend:
    """A Backend wrapping the in-process simulated Aspen device."""

    def __init__(self, device: "RigettiAspenDevice") -> None:
        self.device = device

    @property
    def name(self) -> str:
        return f"local[{self.device.name}]"

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
        """(channel hits, channel misses, dist hits) — the per-job cache
        attribution sampled around a traced submission."""
        cache = self.device.channel_cache
        hits = misses = dist_hits = 0
        if cache is not None:
            hits, misses = cache.hits, cache.misses
        sim = self.device.sim_cache
        if sim is not None:
            dist_hits = sim.dist_hits
        return (hits, misses, dist_hits)

    def submit_batch(self, jobs: Sequence[Job]) -> List[JobResult]:
        return [self.submit(job) for job in jobs]

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Channel-cache and simulation-cache counters, merged.

        Channel-cache keys are unprefixed (``hits``/``misses``/...);
        simulation-cache keys carry a ``dist_`` prefix so the executor
        can diff each cache independently.
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
        sim = self.device.sim_cache
        if sim is not None:
            stats.update(sim.stats())
        return stats
