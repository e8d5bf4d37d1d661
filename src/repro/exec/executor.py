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
    """Cumulative accounting for one executor: the counts it sees itself.

    ``device_time_us`` is *simulated* device occupancy (the clock the
    drift model sees); ``wall_time_s`` is real host time spent inside
    ``submit``/``submit_batch`` calls. Cache, retry and fault counts
    stay with the device, the remote backend and the cloud service that
    see them; :meth:`~repro.experiments.context.ExperimentContext.
    ledgers` reads them all together.
    """

    jobs: int = 0
    batches: int = 0
    shots: int = 0
    device_time_us: float = 0.0
    wall_time_s: float = 0.0
    #: Search-level degradations: links whose probe jobs failed and fell
    #: back to the calibration-fidelity choice (recorded by ANGEL).
    fallbacks: int = 0
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
            "fallbacks": self.fallbacks,
            "jobs_by_tag": dict(self.jobs_by_tag),
            "shots_by_tag": dict(self.shots_by_tag),
            "wall_time_by_tag_s": dict(self.wall_time_by_tag_s),
        }


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
            start = time.perf_counter()
            submit = (
                tolerant if tolerant is not None else self.backend.submit_batch
            )
            results = submit(jobs)
            elapsed = time.perf_counter() - start
            completed = [result for result in results if result is not None]
            if tracer:
                span.set(
                    shots=sum(r.shots for r in completed),
                    device_time_job_us=sum(
                        r.duration_us for r in completed
                    ),
                    failed=len(results) - len(completed),
                )
        self.stats.record(completed, elapsed, batch=len(jobs) > 1)
        return list(results)

    def submit_grouped(
        self,
        groups: Sequence[Sequence[Job]],
        allow_failures: bool = False,
    ) -> List[List[Optional[JobResult]]]:
        """Run several job groups as one batch; demux results per group.

        The groups' jobs execute in the flattened order (one span, one
        backend batch) and their results are sliced back to the source
        groups, so on a sequential backend the device-state trajectory
        is bit-identical to submitting the groups one after another.
        The compile service passes each request's one probe batch
        through here as a single group.
        """
        groups = [list(group) for group in groups]
        flat = [job for group in groups for job in group]
        if not flat:
            return [[] for _ in groups]
        results = self.submit_batch(flat, allow_failures=allow_failures)
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
