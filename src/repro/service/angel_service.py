"""A multi-tenant compile service in front of the ANGEL stack.

:class:`AngelService` accepts many concurrent compile requests — each a
frozen :class:`RequestSpec` naming a benchmark, a device configuration,
and a backend — and runs them through the existing ``Backend`` seam
with fair scheduling, probe-batch coalescing, and cross-tenant probe
deduplication:

* **Isolation** — every request gets its *own* device, calibration,
  and executor stack, so requests never share mutable physics. The
  service keeps a small LRU of chip days: the first request on a recipe
  builds it with :meth:`~repro.experiments.context.ExperimentContext.
  create` and stores the result as a template nothing ever runs on;
  every request then runs on a :meth:`~repro.experiments.context.
  ExperimentContext.clone` of it — the exact state ``create`` reaches,
  at a fraction of the cost. The non-negotiable invariant, pinned by
  ``tests/test_angel_service.py``: a request compiled through the
  service is **bit-identical** to the same spec run through
  :func:`run_standalone` (which always calls ``create``), for any
  tenant mix, worker count, or fault profile.
* **Fairness** — requests advance one *schedulable unit* (one CopyCat
  probe batch, or the final shot execution) per grant, under deficit
  round-robin across tenants (:mod:`repro.service.scheduler`) with
  token-bucket admission (:mod:`repro.service.tenant`).
* **Coalescing** — each scheduler round's units execute together in one
  ``svc.coalesce`` window on a thread pool; a request's probe batch
  goes through ``BatchExecutor.submit_grouped``, the executor-level
  merge/demux seam, and remote requests can window-align their batches
  (:meth:`~repro.service.cloud.CloudQPUService.align_window`).
* **Dedup** — all request devices attach to one
  :class:`~repro.service.dedup.ProbeDistributionStore`, so identical
  probe distributions (same placement, circuit fingerprint, readout,
  and full device-parameter fingerprint) are computed once per physics
  state and replayed exactly everywhere else, with per-tenant
  ``dedup_hits`` ledgers.

* **Fleet mode** — with ``fleet=N`` the service fronts a device fleet
  (:mod:`repro.fleet`): requests are routed to independently drifting
  Aspen replicas by an affinity-aware router, and the dedup store is
  partitioned per replica. A 1-replica fleet stays bit-identical to
  :func:`run_standalone`, and a pinned request's outcome is
  independent of how other tenants' requests are routed.

The request lifecycle emits a ``svc.request`` summary span (queue wait,
latency, probes, dedup hits), a ``context.clone`` span per chip-day memo
hit, and ``service.tenant.<name>.*`` registry counters when
observability is installed; fleet mode adds ``fleet.*`` spans, events,
and per-replica counters.

An unexpected exception in the scheduler thread fails every queued and
in-flight handle with a :class:`~repro.exceptions.ServiceError` chained
to it and closes the service; ``drain`` and ``close`` still return.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..compiler.passes import transpile
from ..core import Angel, AngelConfig, AngelResult
from ..exceptions import ServiceError
from ..exec import Job
from ..exec.executor import BatchExecutor
from ..experiments.context import ExperimentContext
from ..fleet import FleetService, FleetSpec, ReplicaBinding
from ..obs import runtime as obs
from ..programs import get_benchmark
from .dedup import ProbeDistributionStore
from .scheduler import DeficitRoundRobin
from .tenant import AdmissionError, TenantConfig, TenantState

__all__ = [
    "RequestSpec",
    "CompileOutcome",
    "RequestHandle",
    "AngelService",
    "run_standalone",
    "replay_workload",
]

#: Chip days (post-``create`` template contexts) one service keeps;
#: the least recently used goes first.
_CHIP_DAY_MEMO_SIZE = 8


@dataclass(frozen=True)
class RequestSpec:
    """One compile request, frozen: everything a run is a function of.

    The same spec run through :func:`run_standalone` and through an
    :class:`AngelService` produces bit-identical results — the spec
    pins the device build (seed, calibration, drift), the backend and
    its fault stream, and the ANGEL search seed.
    """

    program: str
    shots: int = 1024
    probe_shots: int = 1024
    device_name: str = "aspen-11"
    seed: int = 11
    calibration_seed: int = 3
    drift_hours: float = 2.0
    max_passes: int = 1
    angel_seed: int = 0
    backend: str = "local"
    fault_profile: str = "none"
    fault_seed: int = 0
    #: Window-aligned batch admission for remote backends (see
    #: :meth:`CloudQPUService.align_window`). Part of the spec so the
    #: standalone reference run takes the identical clock trajectory.
    align_windows: bool = False
    #: Pin this request to one fleet replica (index into the fleet).
    #: ``None`` lets the :class:`~repro.fleet.FleetRouter` choose.
    #: Ignored outside fleet mode — :func:`run_standalone` always runs
    #: the spec as written; the fleet reference for a pinned request is
    #: ``run_standalone(fleet.spec.replicas[i].adjust(spec))``.
    replica: Optional[int] = None
    #: Pre-routing optimization level (see :func:`repro.compiler.
    #: transpile`). Part of the spec — the service and the standalone
    #: reference transpile at the same level, so service-vs-standalone
    #: bit-equivalence holds at every level.
    opt_level: int = 0


@dataclass(frozen=True)
class CompileOutcome:
    """What a completed request returns.

    ``final_counts`` are the nativized program's shot counts;
    ``dedup_hits`` counts probe distributions this request took from
    the shared store instead of recomputing.
    """

    spec: RequestSpec
    tenant: Optional[str]
    result: AngelResult
    final_counts: Dict[str, int]
    probes_run: int
    dedup_hits: int
    queue_wait_s: float = 0.0
    latency_s: float = 0.0
    #: Fleet replica index the request ran on (``None`` outside fleet
    #: mode) — lets audits pick the right standalone reference.
    fleet_replica: Optional[int] = None
    #: Host seconds between the first scheduling grant and completion
    #: (``latency_s`` minus ``queue_wait_s``, measured directly).
    service_time_s: float = 0.0
    #: Simulated device occupancy this request consumed (the executor's
    #: cumulative job durations) — deterministic for a deterministic
    #: spec, which makes simulated-time SLO percentiles reproducible.
    device_time_us: float = 0.0


class RequestHandle:
    """Async handle for a submitted request (``concurrent.futures``-ish).

    ``result()`` blocks until the request completes and returns its
    :class:`CompileOutcome`, re-raising the request's failure if it
    failed permanently.
    """

    def __init__(self, tenant: str, spec: RequestSpec) -> None:
        self.tenant = tenant
        self.spec = spec
        self._event = threading.Event()
        self._outcome: Optional[CompileOutcome] = None
        self._exception: Optional[BaseException] = None
        # Lifecycle timestamps (host monotonic seconds), stamped by the
        # service: enqueue at construction, the first scheduling grant,
        # and completion. Queue wait and service time are measured
        # directly from these — not inferred from span gaps.
        self.submitted_at: float = time.monotonic()
        self.scheduled_at: Optional[float] = None
        self.completed_at: Optional[float] = None

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def queue_wait_s(self) -> float:
        """Enqueue -> first scheduling grant (live until scheduled)."""
        anchor = self.scheduled_at
        if anchor is None:
            anchor = (
                self.completed_at
                if self.completed_at is not None
                else time.monotonic()
            )
        return anchor - self.submitted_at

    @property
    def service_time_s(self) -> float:
        """First scheduling grant -> completion (0.0 until finished)."""
        if self.completed_at is None or self.scheduled_at is None:
            return 0.0
        return self.completed_at - self.scheduled_at

    @property
    def latency_s(self) -> float:
        """Enqueue -> completion (live while the request is in flight)."""
        anchor = (
            self.completed_at
            if self.completed_at is not None
            else time.monotonic()
        )
        return anchor - self.submitted_at

    def result(self, timeout: Optional[float] = None) -> CompileOutcome:
        if not self._event.wait(timeout):
            raise ServiceError(
                f"request {self.spec.program!r} (tenant {self.tenant!r}) "
                f"did not complete within {timeout}s"
            )
        if self._exception is not None:
            raise self._exception
        assert self._outcome is not None
        return self._outcome

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise ServiceError("request still pending")
        return self._exception

    def _resolve(
        self,
        outcome: Optional[CompileOutcome] = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self._outcome = outcome
        self._exception = exception
        self._event.set()


class _Request:
    """One request's private compile stack, stepped unit by unit.

    Owns an :class:`ExperimentContext` built from the spec (device,
    calibration, backend, executor), an :class:`AngelProbePlan`, and —
    after the plan completes — the final nativized shot execution. Both
    the service and :func:`run_standalone` drive requests through this
    class, so the two paths cannot diverge; the only difference is that
    the service passes its ``chip_days`` memo, which hands out a clone
    of the context ``create`` would build.
    """

    def __init__(
        self,
        spec: RequestSpec,
        store: Optional[ProbeDistributionStore] = None,
        fleet: Optional[FleetService] = None,
        request_key: Optional[str] = None,
        tenant: Optional[str] = None,
        chip_days: Optional["_ChipDayMemo"] = None,
    ) -> None:
        self.spec = spec
        self.outcome_counts: Optional[Dict[str, int]] = None
        self.result: Optional[AngelResult] = None
        self.fleet = fleet
        self.binding: Optional[ReplicaBinding] = None
        if fleet is not None:
            # Bind lazily at build time (the request's first scheduling
            # grant) so the router sees live queue depths. The binding
            # replaces the shared store with the replica's partition
            # and rewrites the device recipe to the replica's.
            self.binding = fleet.bind(
                request_key or f"anonymous/{id(self):x}", tenant, spec
            )
            effective = self.binding.adjusted(spec)
            store = self.binding.replica.store
        else:
            effective = spec
        recipe = {
            "device_name": effective.device_name,
            "seed": effective.seed,
            "calibration_seed": effective.calibration_seed,
            "drift_hours": effective.drift_hours,
            "backend": effective.backend,
            "fault_profile": effective.fault_profile,
            "fault_seed": effective.fault_seed,
        }
        try:
            self.context = (
                chip_days.context(recipe)
                if chip_days is not None
                else ExperimentContext.create(**recipe)
            )
        except BaseException:
            self._release_binding()
            raise
        try:
            self.executor = self.context.executor
            backend = self.executor.backend
            if hasattr(backend, "align_windows"):
                backend.align_windows = spec.align_windows
            if self.binding is not None:
                # Same backend, same jobs, same order — the fleet facade
                # only adds per-replica accounting, so results stay
                # bit-identical to the unwrapped path.
                self.executor = BatchExecutor(
                    self.binding.wrap_backend(backend)
                )
            self.deduped = (
                store.attach(self.context.device)
                if store is not None
                else False
            )
            circuit = get_benchmark(spec.program).build()
            self.angel = Angel(
                self.context.device,
                self.context.calibration,
                AngelConfig(
                    probe_shots=spec.probe_shots,
                    max_passes=spec.max_passes,
                    seed=spec.angel_seed,
                ),
                executor=self.executor,
            )
            self.compiled = transpile(
                circuit,
                self.context.device,
                self.context.calibration,
                optimization_level=spec.opt_level,
            )
            self.plan = self.angel.plan(self.compiled, observe=True)
        except BaseException:
            self._release_binding()
            self.context.close()
            raise

    @property
    def finished(self) -> bool:
        return self.outcome_counts is not None

    @property
    def cost(self) -> int:
        """Jobs in the next schedulable unit (final execution costs 1)."""
        if self.plan.done:
            return 1
        return len(self.plan.current_batch)

    def step(self) -> None:
        """Run the next unit: one probe batch, or the final execution.

        Probe batches go through the executor's grouped (coalescing)
        path with per-job failure tolerance — failed probes degrade
        links exactly as in :meth:`Angel.select`. The final job is
        all-or-nothing: a permanent failure raises and fails the
        request.
        """
        if self.finished:
            raise ServiceError("request already finished")
        if not self.plan.done:
            jobs = self.plan.next_jobs()
            results = self.executor.submit_grouped(
                [jobs], allow_failures=True
            )[0]
            self.plan.deliver(results)
            return
        self.plan.record_outcome(self.executor)
        self.result = self.plan.result()
        native = self.angel.nativize(self.compiled, self.result)
        final_seed = int(self.angel._rng.integers(2**31))
        final = self.executor.submit(
            Job(native, self.spec.shots, seed=final_seed, tag="final")
        )
        self.outcome_counts = dict(final.counts)

    @property
    def dedup_hits(self) -> int:
        cache = self.context.device.sim_cache
        return cache.dist_hits if cache is not None else 0

    @property
    def probes_run(self) -> int:
        return self.plan.probes_run

    @property
    def device_time_us(self) -> float:
        """Simulated device occupancy consumed so far (executor ledger)."""
        return float(self.executor.stats.device_time_us)

    def _release_binding(self) -> None:
        if self.fleet is not None and self.binding is not None:
            self.fleet.release(self.binding)
            self.binding = None

    def close(self) -> None:
        self._release_binding()
        self.context.close()


class _ChipDayMemo:
    """Bounded LRU of post-``create`` contexts, cloned per request.

    Keyed by every argument :class:`_Request` passes to
    :meth:`ExperimentContext.create`. A template is never run, advanced
    or closed — requests only ever get :meth:`ExperimentContext.clone`
    of it, which is bit-identical to a fresh ``create``. A failed build
    stores nothing. Thread-safe; two concurrent first misses on one
    recipe may both build (the later store wins, and both are exact).
    """

    def __init__(self) -> None:
        self._templates: "OrderedDict[tuple, ExperimentContext]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._templates)

    def context(self, recipe: Dict[str, object]) -> ExperimentContext:
        key = tuple(sorted(recipe.items()))
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                self._templates.move_to_end(key)
        if template is None:
            template = ExperimentContext.create(**recipe)
            with self._lock:
                self._templates[key] = template
                self._templates.move_to_end(key)
                while len(self._templates) > _CHIP_DAY_MEMO_SIZE:
                    self._templates.popitem(last=False)
            return template.clone()
        tracer = obs.active_tracer()
        span = (
            tracer.span(
                "context.clone",
                device=recipe["device_name"],
                drift_hours=recipe["drift_hours"],
            )
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            return template.clone()


def run_standalone(
    spec: RequestSpec,
    store: Optional[ProbeDistributionStore] = None,
) -> CompileOutcome:
    """The reference implementation: one request, start to finish.

    This is the semantics the service is held to — same
    :class:`_Request` stepping, just sequential and alone. A shared
    ``store`` may be supplied to reproduce dedup behaviour; hits are
    exact replays, so the outcome is unchanged either way.
    """
    request = _Request(spec, store)
    try:
        while not request.finished:
            request.step()
        assert request.result is not None
        return CompileOutcome(
            spec=spec,
            tenant=None,
            result=request.result,
            final_counts=request.outcome_counts or {},
            probes_run=request.probes_run,
            dedup_hits=request.dedup_hits,
            device_time_us=request.device_time_us,
        )
    finally:
        request.close()


class _ServiceEntry:
    """One queued request inside the service: spec + handle + timing."""

    def __init__(
        self,
        spec: RequestSpec,
        tenant: TenantState,
        handle: RequestHandle,
        store: Optional[ProbeDistributionStore],
        fleet: Optional[FleetService] = None,
        request_key: Optional[str] = None,
        chip_days: Optional[_ChipDayMemo] = None,
    ) -> None:
        self.spec = spec
        self.tenant = tenant
        self.handle = handle
        self.store = store
        self.fleet = fleet
        self.request_key = request_key
        self.chip_days = chip_days
        self.request: Optional[_Request] = None
        self.error: Optional[BaseException] = None

    @property
    def cost(self) -> int:
        # Before the request stack exists, the first grant pays for
        # preparation plus the one-job reference probe.
        if self.request is None:
            return 1
        return self.request.cost

    @property
    def finished(self) -> bool:
        return self.request is not None and self.request.finished

    def run_step(self) -> None:
        """Advance one unit on a pool thread; resolve handle on exit."""
        try:
            if self.request is None:
                # The first scheduling grant: queue wait ends here, and
                # the handle records the boundary directly.
                self.handle.scheduled_at = time.monotonic()
                self.request = _Request(
                    self.spec,
                    self.store,
                    fleet=self.fleet,
                    request_key=self.request_key,
                    tenant=self.tenant.name,
                    chip_days=self.chip_days,
                )
            self.request.step()
        except BaseException as exc:  # noqa: BLE001 - forwarded to handle
            self.error = exc


class AngelService:
    """The multi-tenant front door: submit specs, collect outcomes.

    Args:
        num_workers: Pool threads executing scheduled units — the
            service's concurrency.
        round_budget_jobs: Per-round job cap for the DRR scheduler
            (window-shaped coalescing); ``None`` leaves rounds
            unbounded.
        dedup: Share probe distributions across requests through a
            :class:`ProbeDistributionStore`.
        tenants: Tenant configurations to pre-register. Unknown tenant
            names submit under a default config (no rate limit).
        fleet: Run in fleet mode — an ``int`` (``FleetSpec.create(n)``),
            a :class:`~repro.fleet.FleetSpec`, or a prebuilt
            :class:`~repro.fleet.FleetService`. Requests are routed to
            drifting device replicas and the dedup store is partitioned
            per replica (``store`` stays ``None``).
        fleet_placements: Recorded ``{request_key: replica_index}``
            placements to replay verbatim (fleet mode only).
    """

    def __init__(
        self,
        num_workers: int = 2,
        round_budget_jobs: Optional[int] = None,
        dedup: bool = True,
        tenants: Sequence[TenantConfig] = (),
        fleet: Optional[Union[int, FleetSpec, FleetService]] = None,
        fleet_placements: Optional[Mapping[str, int]] = None,
    ) -> None:
        if num_workers < 1:
            raise ServiceError("num_workers must be >= 1")
        self.num_workers = num_workers
        if fleet is not None and not isinstance(fleet, FleetService):
            fleet = FleetService(
                fleet,
                dedup=dedup,
                replay=(
                    dict(fleet_placements) if fleet_placements else None
                ),
            )
        self.fleet: Optional[FleetService] = fleet
        self.store = (
            ProbeDistributionStore() if dedup and fleet is None else None
        )
        self.scheduler = DeficitRoundRobin(round_budget_jobs)
        self._chip_days = _ChipDayMemo()
        self._tenants: Dict[str, TenantState] = {}
        for config in tenants:
            self.add_tenant(config)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._inflight = 0
        # Closed: submit refuses. Stopping: the scheduler exits at the
        # next round boundary, failing whatever is still queued.
        self._closed = False
        self._stopping = False
        #: Set when the scheduler thread died of an unexpected exception.
        self._failure: Optional[BaseException] = None
        # Entries of the round executing now (popped off their queues).
        self._round: List[_ServiceEntry] = []
        self._pool = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="angel-svc"
        )
        self._scheduler_thread = threading.Thread(
            target=self._run, name="angel-svc-scheduler", daemon=True
        )
        self._scheduler_thread.start()

    # ------------------------------------------------------------------
    # Tenants and submission
    # ------------------------------------------------------------------
    def add_tenant(self, config: TenantConfig) -> TenantState:
        state = self._tenants.get(config.name)
        if state is not None:
            raise ServiceError(f"tenant {config.name!r} already registered")
        state = TenantState(config)
        self._tenants[config.name] = state
        return state

    def _tenant_state(self, tenant: Union[str, TenantConfig]) -> TenantState:
        if isinstance(tenant, TenantConfig):
            state = self._tenants.get(tenant.name)
            return state if state is not None else self.add_tenant(tenant)
        state = self._tenants.get(tenant)
        if state is None:
            state = self.add_tenant(TenantConfig(tenant))
        return state

    def submit(
        self, tenant: Union[str, TenantConfig], spec: RequestSpec
    ) -> RequestHandle:
        """Queue one request for ``tenant``; never blocks on execution.

        Raises :class:`~repro.service.tenant.AdmissionError` when the
        tenant's token bucket is empty.
        """
        with self._work:
            if self._closed:
                raise ServiceError("service is closed") from self._failure
            state = self._tenant_state(tenant)
            try:
                state.admit()
            except AdmissionError as exc:
                self._observe_reject(state, spec, exc)
                raise
            handle = RequestHandle(state.name, spec)
            # Deterministic per-tenant key: replayable placements need
            # the same request to carry the same key across runs.
            request_key = f"{state.name}/{state.submitted}"
            state.queue.append(
                _ServiceEntry(
                    spec,
                    state,
                    handle,
                    self.store,
                    fleet=self.fleet,
                    request_key=request_key,
                    chip_days=self._chip_days,
                )
            )
            self._inflight += 1
            self._work.notify_all()
        return handle

    def _observe_reject(
        self,
        tenant: TenantState,
        spec: RequestSpec,
        error: "AdmissionError",
    ) -> None:
        """A zero-duration ``svc.reject`` span per admission bounce, so
        rejection rates are computable from the trace alone."""
        tracer = obs.active_tracer()
        if tracer:
            with tracer.span(
                "svc.reject",
                tenant=tenant.name,
                program=spec.program,
            ) as span:
                span.set(retry_after_s=error.retry_after_s)
        registry = obs.active_registry()
        if registry is not None:
            registry.counter(
                f"service.tenant.{tenant.name}.rejected"
            ).add(1)

    # ------------------------------------------------------------------
    # Scheduler loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                with self._work:
                    self._work.wait_for(
                        lambda: self._stopping
                        or any(t.queue for t in self._tenants.values())
                    )
                    if self._stopping:
                        break
                    picked = self.scheduler.next_round(
                        list(self._tenants.values())
                    )
                    if not picked:
                        continue
                    round_number = self.scheduler.rounds
                    self._round = [entry for _, entry in picked]
                self._execute_round(round_number, picked)
        except BaseException as exc:
            # No handle may hang on a dead scheduler; the thread still
            # dies with the traceback (threading.excepthook reports it).
            self._fail_pending(f"service scheduler failed: {exc!r}", exc)
            raise
        self._fail_pending("service closed before the request completed")

    def _fail_pending(
        self, message: str, cause: Optional[BaseException] = None
    ) -> None:
        """Fail every unresolved handle with a :class:`ServiceError`
        (chained to *cause*) and close the service: the scheduler is
        exiting and nothing else would resolve them."""
        with self._work:
            self._closed = True
            self._failure = cause
            queued = [e for t in self._tenants.values() for e in t.queue]
            for tenant in self._tenants.values():
                tenant.queue.clear()
            for entry in self._round + queued:
                if entry.handle.done():
                    continue
                entry.handle.completed_at = time.monotonic()
                entry.tenant.failed += 1
                if entry.request is not None:
                    try:
                        entry.request.close()
                    except Exception:  # noqa: BLE001 - best effort
                        pass
                error = ServiceError(message)
                error.__cause__ = cause
                entry.handle._resolve(exception=error)
            self._round = []
            self._inflight = 0
            self._work.notify_all()

    def _execute_round(self, round_number: int, picked) -> None:
        tracer = obs.active_tracer()
        span = (
            tracer.span(
                "svc.coalesce",
                round=round_number,
                units=len(picked),
                jobs=sum(entry.cost for _, entry in picked),
                tenants=len({tenant.name for tenant, _ in picked}),
            )
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            futures = [
                self._pool.submit(entry.run_step) for _, entry in picked
            ]
            wait(futures)
        with self._work:
            for tenant, entry in reversed(picked):
                if entry.error is not None:
                    self._complete(tenant, entry)
                elif entry.finished:
                    self._complete(tenant, entry)
                else:
                    # Unfinished requests rejoin at the *front* so a
                    # tenant's own requests stay FIFO.
                    tenant.queue.appendleft(entry)
            self._round = []
            self._work.notify_all()

    def _complete(self, tenant: TenantState, entry: _ServiceEntry) -> None:
        """Resolve a finished/failed entry (service lock held)."""
        self._inflight -= 1
        handle = entry.handle
        handle.completed_at = time.monotonic()
        queue_wait = handle.queue_wait_s
        latency = handle.latency_s
        service_time = handle.service_time_s
        tenant.queue_wait_s.append(queue_wait)
        tenant.latency_s.append(latency)
        request = entry.request
        probes = request.probes_run if request is not None else 0
        dedup_hits = request.dedup_hits if request is not None else 0
        device_time_us = (
            request.device_time_us if request is not None else 0.0
        )
        replica = (
            request.binding.index
            if request is not None and request.binding is not None
            else None
        )
        failed = entry.error is not None
        if failed:
            tenant.failed += 1
        else:
            tenant.completed += 1
            tenant.probes += probes
            tenant.dedup_hits += dedup_hits
        self._observe_request(
            tenant,
            entry,
            queue_wait,
            latency,
            probes,
            dedup_hits,
            service_time=service_time,
            device_time_us=device_time_us,
            replica=replica,
        )
        if request is not None:
            try:
                request.close()
            except BaseException as exc:  # pragma: no cover - best effort
                entry.error = entry.error or exc
        if failed:
            handle._resolve(exception=entry.error)
            return
        assert request is not None and request.result is not None
        handle._resolve(
            outcome=CompileOutcome(
                spec=entry.spec,
                tenant=tenant.name,
                result=request.result,
                final_counts=request.outcome_counts or {},
                probes_run=probes,
                dedup_hits=dedup_hits,
                queue_wait_s=queue_wait,
                latency_s=latency,
                fleet_replica=replica,
                service_time_s=service_time,
                device_time_us=device_time_us,
            )
        )

    def _observe_request(
        self,
        tenant: TenantState,
        entry: _ServiceEntry,
        queue_wait: float,
        latency: float,
        probes: int,
        dedup_hits: int,
        service_time: float = 0.0,
        device_time_us: float = 0.0,
        replica: Optional[int] = None,
    ) -> None:
        tracer = obs.active_tracer()
        if tracer:
            # A summary span: the request ran across many rounds and
            # threads, so its lifetime cannot be one ``with`` block —
            # the span's attributes carry the authoritative timings.
            with tracer.span(
                "svc.request",
                tenant=tenant.name,
                program=entry.spec.program,
                backend=entry.spec.backend,
            ) as span:
                span.set(
                    queue_wait_s=round(queue_wait, 9),
                    latency_s=round(latency, 9),
                    service_time_s=round(service_time, 9),
                    device_time_us=device_time_us,
                    probes=probes,
                    dedup_hits=dedup_hits,
                    failed=entry.error is not None,
                )
                if replica is not None:
                    span.set(replica=replica)
        registry = obs.active_registry()
        if registry is not None:
            prefix = f"service.tenant.{tenant.name}"
            key = "failed" if entry.error is not None else "completed"
            registry.counter(f"{prefix}.{key}").add(1)
            registry.counter(f"{prefix}.probes").add(probes)
            registry.counter(f"{prefix}.dedup_hits").add(dedup_hits)
            registry.histogram(f"{prefix}.latency_s").observe(latency)
            registry.histogram(f"{prefix}.queue_wait_s").observe(queue_wait)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted request has resolved."""
        with self._work:
            if not self._work.wait_for(
                lambda: self._inflight == 0, timeout
            ):
                raise ServiceError(
                    f"{self._inflight} requests still in flight after "
                    f"{timeout}s"
                )

    def tenant_report(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant ledgers (admissions, completions, waits, dedup)."""
        with self._lock:
            return {
                name: state.ledger()
                for name, state in sorted(self._tenants.items())
            }

    def fleet_report(self) -> Optional[Dict[str, object]]:
        """Per-replica ledgers and router counters (``None`` off-fleet)."""
        return self.fleet.report() if self.fleet is not None else None

    def store_stats(self) -> List[Dict[str, object]]:
        """Probe-distribution store counters, one row per partition.

        One row for the shared store, or one per fleet replica — each
        with the replica label attached so the serve summary can render
        the partitioning.
        """
        if self.fleet is not None:
            rows = []
            for replica in self.fleet.replicas:
                if replica.store is None:
                    continue
                row: Dict[str, object] = {"partition": replica.name}
                row.update(replica.store.stats())
                rows.append(row)
            return rows
        if self.store is None:
            return []
        row = {"partition": "shared"}
        row.update(self.store.stats())
        return [row]

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain outstanding work, stop the scheduler, free the pool.

        New submits are refused from the start. The scheduler thread and
        the pool are always told to stop, even when the drain times out:
        the round in progress finishes, then requests still unresolved
        fail with :class:`ServiceError`. ``timeout`` bounds the whole
        call: if the drain, or the wait for the scheduler to leave its
        round, runs out of time, :class:`ServiceError` is raised and the
        threads stop on their own once the round ends (a later
        ``close()`` waits for them). Without a timeout, ``close`` returns
        only after both have stopped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work:
            self._closed = True
        try:
            self.drain(timeout)
        finally:
            with self._work:
                self._stopping = True
                self._work.notify_all()
            self._scheduler_thread.join(
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            stopped = not self._scheduler_thread.is_alive()
            self._pool.shutdown(wait=stopped)
        if not stopped:
            raise ServiceError(
                f"service scheduler still in a round after {timeout}s"
            )

    def __enter__(self) -> "AngelService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_workload(
    workload: Mapping[str, Sequence[RequestSpec]],
    num_workers: int = 2,
    round_budget_jobs: Optional[int] = None,
    dedup: bool = True,
    tenants: Sequence[TenantConfig] = (),
    service: Optional[AngelService] = None,
    fleet: Optional[Union[int, FleetSpec, FleetService]] = None,
    fleet_placements: Optional[Mapping[str, int]] = None,
) -> Dict[str, List[Union[CompileOutcome, BaseException]]]:
    """Submit a whole multi-tenant workload and collect every outcome.

    ``workload`` maps tenant name to that tenant's request specs, in
    submission order. Failed requests come back as their exception in
    the corresponding slot (a flaky tenant failing must not sink the
    replay). Creates and closes a service unless one is passed in.
    """
    owned = service is None
    if service is None:
        service = AngelService(
            num_workers=num_workers,
            round_budget_jobs=round_budget_jobs,
            dedup=dedup,
            tenants=tenants,
            fleet=fleet,
            fleet_placements=fleet_placements,
        )
    try:
        handles = {
            name: [service.submit(name, spec) for spec in specs]
            for name, specs in workload.items()
        }
        service.drain()
        results: Dict[str, List[Union[CompileOutcome, BaseException]]] = {}
        for name, tenant_handles in handles.items():
            slots: List[Union[CompileOutcome, BaseException]] = []
            for handle in tenant_handles:
                try:
                    slots.append(handle.result())
                except BaseException as exc:  # noqa: BLE001 - recorded
                    slots.append(exc)
            results[name] = slots
        return results
    finally:
        if owned:
            service.close()


def _spec_variants(
    base: RequestSpec, count: int, programs: Sequence[str]
) -> List[RequestSpec]:
    """``count`` specs cycling through ``programs`` (workload helper)."""
    return [
        replace(base, program=programs[index % len(programs)])
        for index in range(count)
    ]
