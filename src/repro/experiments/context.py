"""Shared experiment setup: device, calibration, and the staleness clock.

The paper's experiments run on a machine whose last full calibration lies
hours in the past, with per-gate refresh cadences keeping XY/CZ fresher
than CPHASE. :func:`ExperimentContext.create` reproduces that protocol:
build a device, calibrate everything, then advance simulated wall-clock
in steps while the calibration service refreshes only what its cadence
allows. Every experiment in this package accepts a context so studies
compose on the same device state.

The context is the one owner of a run's settings: its backend (bound
to the device as its executor, so every job on the device goes where
the context says) and its optimization level (applied by
:meth:`ExperimentContext.transpile`, through which every experiment
compiles).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..device.calibration import CalibrationData, CalibrationService
from ..device.device import RigettiAspenDevice
from ..device.presets import DEFAULT_PROFILE, NoiseProfile, aspen11, aspen_m1
from ..device.topology import Link
from ..exceptions import ReproError
from ..exec import BatchExecutor, Job, get_executor
from ..metrics import success_rate
from ..obs import JsonlSpanSink, MetricsRegistry, Tracer
from ..obs import runtime as obs
from ..service import (
    CloudQPUService,
    FaultProfile,
    RemoteBackend,
    RetryPolicy,
    fault_profile as resolve_fault_profile,
)

__all__ = ["ExperimentContext", "ledgers_to_text"]

_HOUR_US = 3_600e6


@dataclass
class ExperimentContext:
    """A device plus its calibration service, at some point in time.

    Attributes:
        device: The simulated Aspen machine.
        service: The calibration service publishing (possibly stale)
            records for it.
        rng: Experiment-level randomness (seeded).
        backend_name: ``"local"`` (in-process device, the default) or
            ``"remote"`` (through the emulated cloud QPU service).
        fault_profile: Resolved fault profile for the remote backend.
        fault_seed: Seed for the service's fault stream and the remote
            backend's backoff jitter.
        retry_policy: Remote-client resilience tunables (None = default).
        optimization_level: Pre-routing optimization level every
            :meth:`transpile` applies.
    """

    device: RigettiAspenDevice
    service: CalibrationService
    rng: np.random.Generator
    backend_name: str = "local"
    fault_profile: Optional[FaultProfile] = None
    fault_seed: int = 0
    retry_policy: Optional[RetryPolicy] = None
    optimization_level: int = 0
    tracer: Optional[Tracer] = field(
        default=None, repr=False, compare=False
    )
    metrics_registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )
    _obs_previous: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )
    _closed: bool = field(default=False, repr=False, compare=False)

    @property
    def calibration(self) -> CalibrationData:
        return self.service.data

    @classmethod
    def create(
        cls,
        device_name: str = "aspen-11",
        seed: int = 11,
        calibration_seed: int = 3,
        drift_hours: float = 30.0,
        drift_step_hours: float = 3.0,
        profile: NoiseProfile = DEFAULT_PROFILE,
        idle_noise: bool = False,
        crosstalk_zz: float = 0.0,
        backend: str = "local",
        fault_profile: object = "none",
        fault_seed: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        optimization_level: int = 0,
        trace: Optional[str] = None,
        metrics: bool = False,
    ) -> "ExperimentContext":
        """Build a device and age it under the calibration cadence.

        Args:
            device_name: ``"aspen-11"`` or ``"aspen-m-1"``.
            seed: Device parameter/drift seed (a different seed is a
                different chip day).
            calibration_seed: Estimation-noise seed.
            drift_hours: Total simulated hours since the full
                calibration. XY/CZ refresh every 4h, CPHASE every 24h
                (the paper's Aspen-11 cadence asymmetry), so at the
                default 30h the CPHASE records are up to a day stale.
            drift_step_hours: Clock step between cadence checks.
            idle_noise / crosstalk_zz: Optional extra device physics
                (see :class:`~repro.device.device.RigettiAspenDevice`).
            backend: ``"local"`` or ``"remote"`` — whether jobs go
                straight to the device or through the emulated cloud
                QPU service (:mod:`repro.service`).
            fault_profile: A preset name (``none``/``light``/``heavy``/
                ``flaky``) or a :class:`~repro.service.FaultProfile`;
                only meaningful with ``backend="remote"``.
            fault_seed: Seed for fault injection and backoff jitter.
            retry_policy: Remote-client resilience tunables.
            optimization_level: Pre-routing circuit optimization level
                applied by :meth:`transpile` (0 = off, the
                bit-identical default; see
                :mod:`repro.compiler.optimize`).
            trace: Path to stream a JSONL span trace to; installs a
                :class:`~repro.obs.Tracer` bound to the device clock for
                the lifetime of the context (until :meth:`close`).
            metrics: Install a process-wide
                :class:`~repro.obs.MetricsRegistry` for the lifetime of
                the context; :meth:`close` adds the context's
                :meth:`ledgers` to it (implied by ``trace``).
        """
        build = {"aspen-11": aspen11, "aspen-m-1": aspen_m1}.get(device_name)
        if build is None:
            raise ReproError(f"unknown device preset {device_name!r}")
        if backend not in ("local", "remote"):
            raise ReproError(
                f"unknown backend {backend!r}; expected 'local' or 'remote'"
            )
        resolved_profile = (
            fault_profile
            if isinstance(fault_profile, FaultProfile)
            else resolve_fault_profile(str(fault_profile))
        )
        active = obs.active_tracer()
        create_span = (
            active.span(
                "context.create", device=device_name, drift_hours=drift_hours
            )
            if active
            else obs.NULL_SPAN
        )
        with create_span:
            device = build(
                seed=seed,
                profile=profile,
                idle_noise=idle_noise,
                crosstalk_zz=crosstalk_zz,
            )
            service = CalibrationService(device, seed=calibration_seed)
            service.full_calibration()
            elapsed = 0.0
            while elapsed < drift_hours:
                step = min(drift_step_hours, drift_hours - elapsed)
                device.advance_time(step * _HOUR_US)
                service.maybe_recalibrate()
                elapsed += step
        tracer = None
        registry = None
        previous = None
        if trace is not None or metrics:
            registry = MetricsRegistry()
            if trace is not None:
                tracer = Tracer(
                    clock_us=lambda: device.clock_us,
                    sink=JsonlSpanSink(trace),
                    keep_spans=False,
                    registry=registry,
                )
            previous = obs.install(tracer, registry)
        context = cls(
            device=device,
            service=service,
            rng=np.random.default_rng(seed * 7919 + calibration_seed),
            backend_name=backend,
            fault_profile=resolved_profile,
            fault_seed=fault_seed,
            retry_policy=retry_policy,
            optimization_level=optimization_level,
            tracer=tracer,
            metrics_registry=registry,
            _obs_previous=previous,
        )
        context._bind_executor()
        return context

    def clone(self) -> "ExperimentContext":
        """An independent context in exactly this context's state.

        Device and calibration service are cloned (drift arrays, clock,
        epoch, every generator state, calibration records), so running
        or advancing the clone moves nothing in this context and vice
        versa. The clone gets a fresh executor on its own device, like
        :meth:`create`, and no observability: a tracer or registry
        installed by :meth:`create` stays with the original.
        """
        device = self.device.clone()
        clone = replace(
            self,
            device=device,
            service=self.service.clone(device),
            rng=copy.deepcopy(self.rng),
            tracer=None,
            metrics_registry=None,
            _obs_previous=None,
            _closed=False,
        )
        clone._bind_executor()
        return clone

    def _bind_executor(self) -> None:
        """Make this context's backend the device's one executor.

        A remote context installs an executor over its own cloud
        service as ``device.shared_executor``, so every job on the
        device (ANGEL, runtime best, CDR, measurements) goes through the
        service without being handed an executor. A local context keeps
        the device's lazily created local executor.
        """
        if self.backend_name != "remote":
            return
        qpu_service = CloudQPUService(
            self.device, self.fault_profile, seed=self.fault_seed
        )
        self.device.shared_executor = BatchExecutor(
            RemoteBackend(qpu_service, self.retry_policy, seed=self.fault_seed)
        )

    # ------------------------------------------------------------------
    # Common measurement helpers
    # ------------------------------------------------------------------
    def transpile(self, circuit, layout=None):
        """Compile *circuit* for this context's device and calibration.

        Applies the context's ``optimization_level``, so experiments and
        the CLI pick up ``--opt-level`` without threading the knob
        through every call site.
        """
        from ..compiler import transpile as _transpile

        return _transpile(
            circuit,
            self.device,
            self.calibration,
            layout=layout,
            optimization_level=self.optimization_level,
        )

    def exact_success_rate(self, circuit, ideal) -> float:
        """Shot-noise-free SR of a native circuit (oracle view)."""
        return success_rate(ideal, self.device.noisy_distribution(circuit))

    @property
    def executor(self) -> BatchExecutor:
        """The one executor every job on this context's device goes
        through: over a :class:`~repro.service.RemoteBackend` (one cloud
        service per context) with ``backend_name="remote"``, otherwise
        the device's local executor."""
        return get_executor(self.device)

    def ledgers(self) -> Dict[str, Dict[str, Any]]:
        """Every count this context's components keep, read from them.

        ``exec`` is the executor's
        :class:`~repro.exec.executor.ExecutorStats`; ``cache`` the
        device's channel cache and simulation cache (the simulation
        cache's keys ``dist_``-prefixed); on the remote backend,
        ``remote`` holds the client's retry counters and ``service``
        the cloud service's :class:`~repro.service.cloud.ServiceStats`.
        """
        executor = self.executor
        cache = self.device.channel_cache.stats()
        cache.update(self.device.sim_cache.stats())
        ledgers = {"exec": executor.stats.snapshot(), "cache": cache}
        backend = executor.backend
        if isinstance(backend, RemoteBackend):
            ledgers["remote"] = backend.reliability_stats()
            ledgers["service"] = backend.service.stats.snapshot()
        return ledgers

    def close(self) -> None:
        """Finalize observability and release the executor.

        The context's :meth:`ledgers` are added, once, to its own
        registry (``metrics``/``trace``) or else to the registry active
        when it closes; then the device lets go of its executor, whose
        backend holds the device, so a dropped context is freed by
        reference counting; then the trace sink is flushed and closed,
        and the previously installed tracer/registry pair (usually
        none) is restored. Read :attr:`executor` and :meth:`ledgers`
        before closing: afterwards the device would start a new local
        executor.

        Idempotent: every CLI path closes through ``try/finally``
        (or the context-manager protocol), and error paths may have
        closed already by the time the happy-path cleanup runs.
        """
        if self._closed:
            return
        self._closed = True
        registry = self.metrics_registry
        if registry is None:
            registry = obs.active_registry()
        if registry is not None:
            for prefix, ledger in self.ledgers().items():
                registry.ingest(prefix, ledger)
        self.device.shared_executor = None
        if self.tracer is not None:
            self.tracer.close()
        if self._obs_previous is not None:
            obs.uninstall(self._obs_previous)
            self._obs_previous = None

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def measured_success_rate(self, circuit, ideal, shots: int) -> float:
        """Shot-based SR of a native circuit (what a user measures)."""
        result = self.executor.submit(
            Job(
                circuit,
                shots,
                seed=int(self.rng.integers(2**31)),
                tag="measure",
            )
        )
        return success_rate(ideal, result.distribution())

    def full_gate_links(self) -> List[Link]:
        """Links supporting all three native gates (for micro-studies)."""
        return [
            link
            for link in self.device.topology.links
            if len(self.device.supported_gates(*link)) == 3
        ]

    def pick_link(self, index: int = 0) -> Link:
        """A deterministic link with full gate support."""
        links = self.full_gate_links()
        if not links:
            raise ReproError("device has no link supporting all gates")
        return links[index % len(links)]


def ledgers_to_text(ledgers: Mapping[str, Mapping[str, Any]]) -> str:
    """Render :meth:`ExperimentContext.ledgers` as the ``--stats`` block.

    Optional lines (simulated distributions, probe dedup, reliability)
    appear only when one of their counts is nonzero.
    """
    executed = ledgers["exec"]
    cache = ledgers["cache"]
    remote = ledgers.get("remote", {})
    lines = [
        f"jobs: {executed['jobs']} ({executed['batches']} batches), "
        f"shots: {executed['shots']}",
        f"device time: {executed['device_time_us'] / 1e6:.3f} s simulated, "
        f"host time: {executed['wall_time_s']:.3f} s",
        f"channel cache: {cache['hits']} hits / {cache['misses']} misses",
    ]
    if cache["dist_hits"] or cache["dist_misses"]:
        lines.append(
            f"sim cache: {cache['dist_misses']} distributions simulated"
        )
    if cache["dist_hits"] or cache["dist_shared_publishes"]:
        lines.append(
            f"probe dedup: {cache['dist_hits']} cross-request hits, "
            f"{cache['dist_shared_publishes']} published"
        )
    retries = remote.get("retries", 0)
    failures = remote.get("failures", 0)
    breaker_trips = remote.get("breaker_trips", 0)
    fallbacks = executed["fallbacks"]
    if retries or failures or breaker_trips or fallbacks:
        lines.append(
            f"reliability: {retries} retries, {failures} job failures, "
            f"{breaker_trips} breaker trips, {fallbacks} degraded links"
        )
    jobs_by_tag = executed["jobs_by_tag"]
    for tag in sorted(jobs_by_tag):
        lines.append(
            f"  {tag}: {jobs_by_tag[tag]} jobs, "
            f"{executed['shots_by_tag'].get(tag, 0)} shots, "
            f"{executed['wall_time_by_tag_s'].get(tag, 0.0):.3f} s host"
        )
    return "\n".join(lines)
