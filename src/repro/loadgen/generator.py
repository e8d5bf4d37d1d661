"""Drive an :class:`~repro.service.AngelService` from a workload spec.

:class:`LoadGenerator` expands a :class:`~repro.loadgen.workload.
WorkloadSpec` into its deterministic submission schedule and replays it
against a service built to the workload's shape (workers, round budget,
dedup), with an observability pair installed for the duration so
every ``svc.request`` / ``svc.coalesce`` / ``search`` / ``exec.batch``
span lands in the report.

Two drive modes:

* ``pacing="none"`` (default) — submit as fast as the arrival *order*
  allows: open-loop requests go out back-to-back in offset order,
  closed-loop clients still wait for each response but skip think-time
  sleeps. This is the CI mode: wall-clock compressed, outcomes and
  simulated-time percentiles unchanged (request isolation means timing
  never leaks into results).
* ``pacing="wall"`` — honor the schedule on the host clock, offsets
  divided by ``speedup``; the mode for latency realism on a live box.

Every completed request's :class:`~repro.service.CompileOutcome` is
bit-identical to ``run_standalone(spec)`` — the service equivalence
contract, re-pinned under load by ``tests/test_equivalence_matrix.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..obs import MetricsRegistry, Tracer
from ..obs import runtime as obs
from ..service import (
    AdmissionError,
    AngelService,
    CompileOutcome,
    TenantConfig,
)
from .slo import SloAnalyzer, SloPolicy, SloVerdict
from .workload import ScheduledRequest, WorkloadSpec

__all__ = ["LoadGenerator", "LoadReport"]

#: A request slot in the report: the outcome, the failure, or the
#: admission bounce (an AdmissionError instance).
Slot = Union[CompileOutcome, BaseException]


@dataclass
class LoadReport:
    """Everything one load run produced."""

    workload: WorkloadSpec
    schedule: List[ScheduledRequest]
    #: Per tenant, one slot per scheduled request, in request order.
    outcomes: Dict[str, List[Slot]]
    spans: List[Dict[str, Any]]
    wall_time_s: float
    rejected: int
    tenant_report: Dict[str, Dict[str, object]]
    store_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def completed(self) -> List[CompileOutcome]:
        return [
            slot
            for slots in self.outcomes.values()
            for slot in slots
            if isinstance(slot, CompileOutcome)
        ]

    @property
    def failed(self) -> int:
        """Requests that ran and failed (admission bounces excluded)."""
        return sum(
            1
            for slots in self.outcomes.values()
            for slot in slots
            if isinstance(slot, BaseException)
            and not isinstance(slot, AdmissionError)
        )

    def analyze(self) -> Dict[str, Any]:
        """SLO metrics via :class:`SloAnalyzer` over this run's spans."""
        return SloAnalyzer(self.spans, self.wall_time_s).analyze()

    def verdict(self) -> SloVerdict:
        """The workload's declared bounds evaluated on this run."""
        return SloPolicy(self.workload.slo).evaluate(self.analyze())


class LoadGenerator:
    """Expand a workload into a schedule and drive the service with it."""

    def __init__(self, workload: WorkloadSpec) -> None:
        self.workload = workload
        self._schedule: Optional[List[ScheduledRequest]] = None

    def schedule(self) -> List[ScheduledRequest]:
        """The deterministic submission schedule (cached)."""
        if self._schedule is None:
            self._schedule = self.workload.schedule()
        return self._schedule

    # ------------------------------------------------------------------
    def _build_service(self) -> AngelService:
        workload = self.workload
        return AngelService(
            num_workers=workload.workers,
            round_budget_jobs=workload.round_budget_jobs,
            dedup=workload.dedup,
            tenants=tuple(
                TenantConfig(
                    name=tenant.name,
                    rate=tenant.rate,
                    burst=tenant.burst,
                    quantum=tenant.quantum,
                )
                for tenant in workload.tenants
            ),
        )

    def run(
        self,
        pacing: str = "none",
        speedup: float = 1.0,
        trace_path: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> LoadReport:
        """Drive the full workload; block until every request resolves.

        Args:
            pacing: ``"none"`` (compressed, CI mode) or ``"wall"``
                (host-clock schedule).
            speedup: With ``pacing="wall"``, divide every offset and
                think time by this factor.
            trace_path: Stream the run's spans to a JSONL file too.
            timeout_s: Per-request result timeout (safety net only).
        """
        if pacing not in ("none", "wall"):
            raise ValueError(f"unknown pacing {pacing!r}")
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        schedule = self.schedule()
        open_loop = [item for item in schedule if item.client is None]
        closed: Dict[tuple, List[ScheduledRequest]] = {}
        for item in schedule:
            if item.client is not None:
                closed.setdefault((item.tenant, item.client), []).append(
                    item
                )
        for items in closed.values():
            items.sort(key=lambda item: item.index)

        slots: Dict[tuple, Slot] = {}
        slots_lock = threading.Lock()
        rejected = [0]

        tracer = Tracer(sink=trace_path)
        registry = MetricsRegistry()
        previous = obs.install(tracer, registry)
        service = self._build_service()
        start = time.perf_counter()
        origin = time.monotonic()

        def record(item: ScheduledRequest, slot: Slot) -> None:
            with slots_lock:
                slots[(item.tenant, item.index)] = slot
                if isinstance(slot, AdmissionError):
                    rejected[0] += 1

        def pace_until(offset_s: float) -> None:
            if pacing != "wall":
                return
            delay = offset_s / speedup - (time.monotonic() - origin)
            if delay > 0:
                time.sleep(delay)

        def drive_client(items: List[ScheduledRequest]) -> None:
            # One closed-loop client: wait for each response (plus the
            # scheduled think time under wall pacing) before the next.
            for item in items:
                if pacing == "wall" and item.think_s > 0:
                    time.sleep(item.think_s / speedup)
                try:
                    handle = service.submit(item.tenant, item.spec)
                except AdmissionError as exc:
                    record(item, exc)
                    continue
                try:
                    record(item, handle.result(timeout=timeout_s))
                except BaseException as exc:  # noqa: BLE001 - recorded
                    record(item, exc)

        try:
            threads = [
                threading.Thread(
                    target=drive_client,
                    args=(items,),
                    name=f"loadgen-{tenant}-c{client}",
                    daemon=True,
                )
                for (tenant, client), items in sorted(closed.items())
            ]
            for thread in threads:
                thread.start()
            handles = []
            for item in open_loop:
                pace_until(item.offset_s)
                try:
                    handles.append(
                        (item, service.submit(item.tenant, item.spec))
                    )
                except AdmissionError as exc:
                    record(item, exc)
            for thread in threads:
                thread.join()
            service.drain(timeout_s)
            for item, handle in handles:
                try:
                    record(item, handle.result(timeout=timeout_s))
                except BaseException as exc:  # noqa: BLE001 - recorded
                    record(item, exc)
            wall_time_s = time.perf_counter() - start
            tenant_report = service.tenant_report()
            store_stats = service.store_stats()
        finally:
            try:
                service.close()
            finally:
                obs.uninstall(previous)
                tracer.close()

        outcomes: Dict[str, List[Slot]] = {}
        for item in sorted(
            schedule, key=lambda entry: (entry.tenant, entry.index)
        ):
            outcomes.setdefault(item.tenant, []).append(
                slots[(item.tenant, item.index)]
            )
        return LoadReport(
            workload=self.workload,
            schedule=schedule,
            outcomes=outcomes,
            spans=[span.to_dict() for span in tracer.spans],
            wall_time_s=wall_time_s,
            rejected=rejected[0],
            tenant_report=tenant_report,
            store_stats=store_stats,
        )
