"""A multi-tenant compile service in front of the ANGEL stack.

:class:`AngelService` accepts many concurrent compile requests — each a
frozen :class:`RequestSpec` naming a benchmark, a device configuration,
and a backend — and runs them through the existing ``Backend`` seam
with fair scheduling and cross-tenant probe deduplication:

* **Isolation** — every request gets its *own* device, calibration,
  and executor stack, so requests never share mutable physics. The
  service keeps a small LRU of chip days: the first request on a recipe
  builds it with :meth:`~repro.experiments.context.ExperimentContext.
  create` and stores the result as a template nothing ever runs on;
  every request then runs on a :meth:`~repro.experiments.context.
  ExperimentContext.clone` of it — the exact state ``create`` reaches,
  at a fraction of the cost. Because every clone of a chip day is the
  same, so is every compile on it: the first request for a program (at
  its ``opt_level``) keeps its :class:`~repro.compiler.CompiledProgram`
  and CopyCat kit on the chip-day entry, and later requests re-bind
  that program to their own clone's device, skipping layout, routing,
  scheduling and CopyCat construction. Those artifacts are shared
  read-only and go when their chip day is evicted. The non-negotiable
  invariant, pinned by ``tests/test_angel_service.py``: a request
  compiled through the service is **bit-identical** to the same spec
  run through :func:`run_standalone` (which always calls ``create``
  and compiles), for any tenant mix, worker count, or fault profile.
* **Fairness** — requests advance one *schedulable unit* (one CopyCat
  probe batch, or the final shot execution) per grant, under deficit
  round-robin across tenants (:mod:`repro.service.scheduler`) with
  token-bucket admission (:mod:`repro.service.tenant`).
* **Rounds** — each scheduler round's units execute in one
  ``svc.coalesce`` window on a thread pool. Nothing is merged across
  requests: each unit passes its request's one probe batch to the
  request's own executor (``BatchExecutor.submit_grouped`` with a single
  group).
* **Dedup** — all request devices attach to one
  :class:`~repro.service.dedup.ProbeDistributionStore`, so identical
  probe distributions (same placement, circuit fingerprint, readout,
  and full device-parameter fingerprint) are computed once per physics
  state and replayed exactly everywhere else, with per-tenant
  ``dedup_hits`` ledgers.

The request lifecycle emits a ``svc.request`` summary span (queue wait,
latency, probes, dedup hits, and ``compile_memo``: whether the request
reused its chip day's compile, in which case it emits no ``compiler.*``
spans), a ``context.clone`` span per chip-day memo hit, and
``service.tenant.<name>.*`` registry counters when
observability is installed; a finished request's context adds its
ledgers (``exec.*``, ``cache.*``, and ``remote.*``/``service.*`` when
remote) to the installed registry as it closes, so the registry sums
every request.

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
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..compiler.passes import CompiledProgram, transpile
from ..core import Angel, AngelConfig, AngelResult
from ..core.angel import CopycatKit, copycat_kit
from ..exceptions import ServiceError
from ..exec import Job
from ..experiments.context import ExperimentContext
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
    #: Host seconds between the first scheduling grant and completion
    #: (``latency_s`` minus ``queue_wait_s``, measured directly).
    service_time_s: float = 0.0
    #: Simulated device occupancy this request consumed (the executor's
    #: cumulative job durations) — deterministic for a deterministic
    #: spec, so simulated-time latencies are reproducible.
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
    of the context ``create`` would build, and the compiled program and
    CopyCat kit of an earlier request for the same program on it.
    """

    def __init__(
        self,
        spec: RequestSpec,
        store: Optional[ProbeDistributionStore] = None,
        chip_days: Optional["_ChipDayMemo"] = None,
    ) -> None:
        self.spec = spec
        self.outcome_counts: Optional[Dict[str, int]] = None
        self.result: Optional[AngelResult] = None
        recipe = {
            "device_name": spec.device_name,
            "seed": spec.seed,
            "calibration_seed": spec.calibration_seed,
            "drift_hours": spec.drift_hours,
            "backend": spec.backend,
            "fault_profile": spec.fault_profile,
            "fault_seed": spec.fault_seed,
        }
        if chip_days is None:
            self.context, day = ExperimentContext.create(**recipe), None
        else:
            self.context, day = chip_days.checkout(recipe)
        try:
            self.executor = self.context.executor
            if store is not None:
                store.attach(self.context.device)
            benchmark = get_benchmark(spec.program)
            self.angel = Angel(
                self.context.device,
                self.context.calibration,
                AngelConfig(
                    probe_shots=spec.probe_shots,
                    max_passes=spec.max_passes,
                    seed=spec.angel_seed,
                ),
            )
            key = (benchmark.name, spec.opt_level)
            artifact = None if day is None else chip_days.artifact(day, key)
            #: Whether the compiled program and CopyCat came from the
            #: chip day instead of being built for this request.
            self.compile_memo = artifact is not None
            if artifact is None:
                self.compiled = transpile(
                    benchmark.build(),
                    self.context.device,
                    self.context.calibration,
                    optimization_level=spec.opt_level,
                )
                kit = copycat_kit(self.compiled, self.angel.config)
            else:
                self.compiled = replace(
                    artifact.compiled, device=self.context.device
                )
                kit = artifact.kit
            self.plan = self.angel.plan(self.compiled, observe=True, kit=kit)
            if artifact is None and day is not None:
                chip_days.keep(
                    day,
                    key,
                    _CompileArtifact(
                        replace(self.compiled, device=day.template.device),
                        kit,
                    ),
                )
        except BaseException:
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

        A probe batch goes to this request's executor as one group,
        with per-job failure tolerance — failed probes degrade links
        exactly as in :meth:`Angel.select`. The final job is
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
        return self.context.device.sim_cache.dist_hits

    @property
    def probes_run(self) -> int:
        return self.plan.probes_run

    @property
    def device_time_us(self) -> float:
        """Simulated device occupancy consumed so far (executor ledger)."""
        return float(self.executor.stats.device_time_us)

    def close(self) -> None:
        self.context.close()


class _CompileArtifact(NamedTuple):
    """One program's compile on one chip day, shared read-only.

    ``compiled`` is bound to the chip day's template device, which never
    runs; a request re-binds it to its own clone's device.
    """

    compiled: CompiledProgram
    kit: CopycatKit


class _ChipDay:
    """One memoized chip day: a post-``create`` template context, and
    the compile artifacts of the programs requested on it, keyed by
    (canonical benchmark name, ``opt_level``)."""

    __slots__ = ("template", "artifacts")

    def __init__(self, template: ExperimentContext) -> None:
        # A template never runs, so it keeps no executor: a remote one
        # would tie its device into a cycle that outlives eviction.
        template.device.shared_executor = None
        self.template = template
        self.artifacts: Dict[Tuple[str, int], _CompileArtifact] = {}


class _ChipDayMemo:
    """Bounded LRU of chip days, cloned per request.

    Keyed by every argument :class:`_Request` passes to
    :meth:`ExperimentContext.create`. A template is never run, advanced
    or closed — requests only ever get :meth:`ExperimentContext.clone`
    of it, which is bit-identical to a fresh ``create``. So a program's
    layout, routing, schedule and CopyCat are a pure function of the
    chip day, the program and ``opt_level``: the first request builds
    them on its clone and keeps them on the entry, later ones reuse
    them, and they go when the entry is evicted. A failed build stores
    nothing. Thread-safe, with the lock held only around dict access:
    two concurrent first misses on one chip day or one program may both
    build it, the first store wins, and every copy is exact.
    """

    def __init__(self) -> None:
        self._days: "OrderedDict[tuple, _ChipDay]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._days)

    def checkout(
        self, recipe: Dict[str, object]
    ) -> Tuple[ExperimentContext, _ChipDay]:
        """A fresh clone of the recipe's chip day, and its entry."""
        key = tuple(sorted(recipe.items()))
        with self._lock:
            day = self._days.get(key)
            if day is not None:
                self._days.move_to_end(key)
        if day is None:
            built = _ChipDay(ExperimentContext.create(**recipe))
            with self._lock:
                day = self._days.setdefault(key, built)
                self._days.move_to_end(key)
                while len(self._days) > _CHIP_DAY_MEMO_SIZE:
                    self._days.popitem(last=False)
            return day.template.clone(), day
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
            return day.template.clone(), day

    def artifact(
        self, day: _ChipDay, key: Tuple[str, int]
    ) -> Optional[_CompileArtifact]:
        """The stored compile of ``key`` on ``day``, or ``None``."""
        with self._lock:
            return day.artifacts.get(key)

    def keep(
        self, day: _ChipDay, key: Tuple[str, int], artifact: _CompileArtifact
    ) -> None:
        """Store ``artifact`` unless ``key`` already has one."""
        with self._lock:
            day.artifacts.setdefault(key, artifact)


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
        chip_days: Optional[_ChipDayMemo] = None,
    ) -> None:
        self.spec = spec
        self.tenant = tenant
        self.handle = handle
        self.store = store
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
                    self.spec, self.store, chip_days=self.chip_days
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
            (window-shaped rounds); ``None`` leaves rounds
            unbounded.
        dedup: Share probe distributions across requests through a
            :class:`ProbeDistributionStore`.
        tenants: Tenant configurations to pre-register. Unknown tenant
            names submit under a default config (no rate limit).
    """

    def __init__(
        self,
        num_workers: int = 2,
        round_budget_jobs: Optional[int] = None,
        dedup: bool = True,
        tenants: Sequence[TenantConfig] = (),
    ) -> None:
        if num_workers < 1:
            raise ServiceError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.store = ProbeDistributionStore() if dedup else None
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
            state.queue.append(
                _ServiceEntry(
                    spec, state, handle, self.store, chip_days=self._chip_days
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
                # Waiting for work must not keep the finished round's
                # requests (their devices and caches) alive.
                del picked
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
                    compile_memo=(
                        entry.request is not None
                        and entry.request.compile_memo
                    ),
                    failed=entry.error is not None,
                )
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

