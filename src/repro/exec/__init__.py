"""Execution service: the seam between algorithms and hardware.

Everything that runs a circuit on the (simulated) device goes through
this package: algorithms build :class:`Job` objects, a
:class:`BatchExecutor` stamps ids and keeps :class:`ExecutorStats`, and a
:class:`Backend` (here :class:`LocalBackend`) turns jobs into
:class:`JobResult` counts. See ``docs/architecture.md`` for the layering
and how it maps onto the paper's Fig. 11 flow.
"""

from .backend import Backend, LocalBackend
from .executor import BatchExecutor, ExecutorStats, get_executor
from .job import Job, JobResult

__all__ = [
    "Backend",
    "LocalBackend",
    "Job",
    "JobResult",
    "BatchExecutor",
    "ExecutorStats",
    "get_executor",
]
