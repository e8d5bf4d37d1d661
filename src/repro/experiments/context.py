"""Shared experiment setup: device, calibration, and the staleness clock.

The paper's experiments run on a machine whose last full calibration lies
hours in the past, with per-gate refresh cadences keeping XY/CZ fresher
than CPHASE. :func:`ExperimentContext.create` reproduces that protocol:
build a device, calibrate everything, then advance simulated wall-clock
in steps while the calibration service refreshes only what its cadence
allows. Every experiment in this package accepts a context so studies
compose on the same device state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..device.calibration import CalibrationData, CalibrationService
from ..device.device import RigettiAspenDevice
from ..device.presets import DEFAULT_PROFILE, NoiseProfile, aspen11, aspen_m1
from ..device.topology import Link
from ..exceptions import ReproError
from ..exec import BatchExecutor, Job, LocalBackend, get_executor
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

__all__ = ["ExperimentContext"]

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
        parallel: Run executor batches through the snapshot parallel
            discipline (persistent worker pool) instead of sequentially.
        max_workers: Worker-pool size for parallel batches (``None`` =
            the pool's own default; 1 forces the in-process snapshot
            path).
    """

    device: RigettiAspenDevice
    service: CalibrationService
    rng: np.random.Generator
    backend_name: str = "local"
    fault_profile: Optional[FaultProfile] = None
    fault_seed: int = 0
    retry_policy: Optional[RetryPolicy] = None
    parallel: bool = False
    max_workers: Optional[int] = None
    optimization_level: int = 0
    tracer: Optional[Tracer] = field(
        default=None, repr=False, compare=False
    )
    metrics_registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )
    _remote_executor: Optional[BatchExecutor] = field(
        default=None, repr=False, compare=False
    )
    _parallel_executor: Optional[BatchExecutor] = field(
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
        sim_cache: bool = True,
        batched_sim: bool = True,
        clifford_fast_path: bool = False,
        parallel: bool = False,
        max_workers: Optional[int] = None,
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
            sim_cache: Enable the device's simulation cache hierarchy
                (prefix-state + distribution memoization); disable for
                A/B runs against the uncached simulation path.
            batched_sim: Stack candidate batches into shared-suffix
                contractions (the batched engine); disable for A/B runs
                against the one-at-a-time path.
            clifford_fast_path: Route pure-Clifford probes through the
                stabilizer simulator with a white-noise perturbative
                treatment where the coherent-error budget allows
                (off by default: its counts are distribution-level
                approximations, differential-test-bounded rather than
                bit-identical).
            parallel: Dispatch executor batches through the persistent
                worker pool (snapshot discipline) instead of running
                them sequentially.
            max_workers: Pool size for parallel batches.
            optimization_level: Pre-routing circuit optimization level
                applied by :meth:`transpile` (0 = off, the
                bit-identical default; see
                :mod:`repro.compiler.optimize`).
            trace: Path to stream a JSONL span trace to; installs a
                :class:`~repro.obs.Tracer` bound to the device clock for
                the lifetime of the context (until :meth:`close`).
            metrics: Install a process-wide
                :class:`~repro.obs.MetricsRegistry` absorbing executor,
                cache, and service counters (implied by ``trace``).
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
                sim_cache=sim_cache,
                batched_sim=batched_sim,
                clifford_fast_path=clifford_fast_path,
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
        return cls(
            device=device,
            service=service,
            rng=np.random.default_rng(seed * 7919 + calibration_seed),
            backend_name=backend,
            fault_profile=resolved_profile,
            fault_seed=fault_seed,
            retry_policy=retry_policy,
            parallel=parallel,
            max_workers=max_workers,
            optimization_level=optimization_level,
            tracer=tracer,
            metrics_registry=registry,
            _obs_previous=previous,
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
        """The execution service shared by everything using this device.

        With ``backend_name="remote"`` this is a dedicated executor over
        a :class:`~repro.service.RemoteBackend` (one cloud service per
        context); otherwise the device's shared local executor. With
        ``parallel`` the executor runs batches in ``"parallel"`` mode —
        local contexts get a dedicated executor owning its backend (and
        its persistent worker pool), so the shared sequential ledger is
        untouched; remote contexts forward the mode through the cloud
        service to its local fallback.
        """
        if self.backend_name == "local":
            if not self.parallel:
                return get_executor(self.device)
            if self._parallel_executor is None:
                self._parallel_executor = BatchExecutor(
                    LocalBackend(self.device),
                    mode="parallel",
                    max_workers=self.max_workers,
                )
            return self._parallel_executor
        if self._remote_executor is None:
            qpu_service = CloudQPUService(
                self.device,
                self.fault_profile if self.fault_profile is not None
                else resolve_fault_profile("none"),
                seed=self.fault_seed,
            )
            self._remote_executor = BatchExecutor(
                RemoteBackend(
                    qpu_service, self.retry_policy, seed=self.fault_seed
                ),
                mode="parallel" if self.parallel else "sequential",
                max_workers=self.max_workers,
            )
        return self._remote_executor

    def close(self) -> None:
        """Release worker pools and finalize observability.

        When the context was created with ``trace``/``metrics``, the
        final executor/cache/service ledgers are absorbed into the
        registry, the trace sink is flushed and closed, and the
        previously installed tracer/registry pair (usually none) is
        restored.

        Idempotent: every CLI/runner path closes through ``try/finally``
        (or the context-manager protocol), and error paths may have
        closed already by the time the happy-path cleanup runs.
        """
        if self._closed:
            return
        self._closed = True
        if self.metrics_registry is not None:
            self._ingest_final_stats()
        if self._parallel_executor is not None:
            backend = self._parallel_executor.backend
            close = getattr(backend, "close", None)
            if close is not None:
                close()
        if self._remote_executor is not None:
            backend = self._remote_executor.backend
            service = getattr(backend, "service", None)
            if service is not None:
                service.close()
        if self.tracer is not None:
            self.tracer.close()
        if self._obs_previous is not None:
            obs.uninstall(self._obs_previous)
            self._obs_previous = None

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ingest_final_stats(self) -> None:
        """Absorb every live executor/backend ledger into the registry."""
        registry = self.metrics_registry
        executors = []
        if self.backend_name == "local" and not self.parallel:
            executors.append(get_executor(self.device))
        if self._parallel_executor is not None:
            executors.append(self._parallel_executor)
        if self._remote_executor is not None:
            executors.append(self._remote_executor)
        for executor in executors:
            registry.ingest_executor(executor.stats)
            registry.ingest_cache(executor.backend.cache_stats())
            service = getattr(executor.backend, "service", None)
            stats = getattr(service, "stats", None)
            if stats is not None:
                registry.ingest_service(stats)

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
