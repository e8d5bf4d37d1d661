"""FleetService: N drifting Aspen replicas behind one Backend seam.

:class:`FleetService` is the fleet's front door for the compile tier:
it owns the :class:`~repro.fleet.replica.FleetReplica` ledgers, the
:class:`~repro.fleet.router.FleetRouter`, and one probe-distribution
partition per replica. The :class:`~repro.service.angel_service.
AngelService` asks it to **bind** each incoming request; the binding
carries everything the request stack needs:

* the replica-adjusted :class:`RequestSpec` (independent seeded drift,
  staggered calibration, per-replica fault profile);
* the replica's private dedup store (partitioned per replica
  ``parameter_fingerprint`` — cross-replica fingerprints never match,
  so partitioning makes the isolation explicit and measurable);
* a :class:`FleetBackend` wrapper that accounts every submitted batch
  to the replica's queue-depth / device-time ledger and emits
  ``fleet.*`` observability.

:class:`FleetBackend` is Backend-compatible: it forwards ``submit`` /
``submit_batch`` (and, when the inner backend supports it,
``submit_batch_tolerant``) unchanged, so everything above the
execution seam — ANGEL, the coalescing executor, retries — runs
bit-identically with or without the fleet in front. Attributes the
facade does not define (``cache_stats``, ``reliability_stats``,
``align_windows``, …) resolve on the wrapped backend, which keeps the
executor's diff-based stats absorption working untouched.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import ServiceError
from ..obs import runtime as obs
from ..programs import get_benchmark
from ..sim.circuit_compiler import instruction_hash_chain
from .replica import FleetReplica, FleetSpec
from .router import FleetRouter, PlacementDecision

__all__ = ["FleetBackend", "ReplicaBinding", "FleetService"]

#: How many leading instruction hashes form a request's routing
#: signature. Only the head of the chain matters for placement.
_SIGNATURE_PREFIX = 16


class FleetBackend:
    """Backend facade accounting one request's traffic to its replica."""

    def __init__(self, inner, replica: FleetReplica) -> None:
        self.inner = inner
        self.replica = replica

    @property
    def name(self) -> str:
        return f"fleet[{self.replica.name}]/{self.inner.name}"

    # ------------------------------------------------------------------
    def _dispatch(self, jobs, call, *args):
        replica = self.replica
        depth = replica.begin_batch(len(jobs))
        self._set_queue_gauge()
        tracer = obs.active_tracer()
        span = (
            tracer.span(
                "fleet.dispatch",
                replica=replica.name,
                jobs=len(jobs),
                queue_depth=depth,
            )
            if tracer
            else obs.NULL_SPAN
        )
        device_time_us = 0.0
        try:
            with span:
                results = call(*args)
                completed = [r for r in results if r is not None]
                device_time_us = sum(r.duration_us for r in completed)
                if tracer:
                    span.set(
                        device_time_us=device_time_us,
                        failed=len(results) - len(completed),
                    )
            return results
        finally:
            replica.finish_batch(len(jobs), device_time_us)
            self._set_queue_gauge()
            registry = obs.active_registry()
            if registry is not None:
                registry.counter(
                    f"fleet.replica.{replica.index}.jobs"
                ).add(len(jobs))

    def _set_queue_gauge(self) -> None:
        registry = obs.active_registry()
        if registry is not None:
            registry.gauge(
                f"fleet.replica.{self.replica.index}.queue_depth"
            ).set(self.replica.queue_depth)

    def submit(self, job):
        return self._dispatch([job], lambda: [self.inner.submit(job)])[0]

    def submit_batch(self, jobs):
        return self._dispatch(jobs, self.inner.submit_batch, jobs)

    def __getattr__(self, name):
        # Only expose the tolerant path when the wrapped backend has it:
        # the executor probes with getattr(), and pretending to support
        # per-job failure reporting would change failure semantics.
        if name == "submit_batch_tolerant":
            inner_tolerant = getattr(self.inner, name)

            def tolerant(jobs):
                return self._dispatch(jobs, inner_tolerant, jobs)

            return tolerant
        return getattr(self.inner, name)


@dataclass(frozen=True)
class ReplicaBinding:
    """A request's sticky attachment to one replica."""

    request_key: str
    decision: PlacementDecision
    replica: FleetReplica

    @property
    def index(self) -> int:
        return self.replica.index

    def adjusted(self, spec):
        """The request spec as seen on this replica."""
        return self.replica.spec.adjust(spec)

    def wrap_backend(self, inner) -> FleetBackend:
        return FleetBackend(inner, self.replica)


class FleetService:
    """Owns the replicas, the router, and the per-replica dedup stores.

    Args:
        spec: A :class:`FleetSpec`, or an ``int`` shorthand for
            ``FleetSpec.create(n)``.
        dedup: Give each replica a private
            :class:`~repro.service.dedup.ProbeDistributionStore`.
        router: Custom router (weights); default
            :class:`FleetRouter()`.
        replay: Recorded ``{request_key: replica_index}`` placements to
            replay verbatim (ignored when ``router`` is supplied).
    """

    def __init__(
        self,
        spec: Union[FleetSpec, int],
        dedup: bool = True,
        router: Optional[FleetRouter] = None,
        replay: Optional[Dict[str, int]] = None,
    ) -> None:
        if isinstance(spec, int):
            spec = FleetSpec.create(spec)
        self.spec = spec
        if dedup:
            # Imported lazily: repro.service imports the fleet package
            # from its (last-imported) angel_service module, so a
            # module-level import here would cycle.
            from ..service.dedup import ProbeDistributionStore

            stores: List[Optional[object]] = [
                ProbeDistributionStore() for _ in spec.replicas
            ]
        else:
            stores = [None for _ in spec.replicas]
        self.replicas: List[FleetReplica] = [
            FleetReplica(replica_spec, store=store)
            for replica_spec, store in zip(spec.replicas, stores)
        ]
        self.router = (
            router if router is not None else FleetRouter(replay=replay)
        )
        self._lock = threading.Lock()
        self._signatures: Dict[str, Tuple[bytes, ...]] = {}

    @property
    def size(self) -> int:
        return self.spec.size

    # ------------------------------------------------------------------
    def signature_for(self, program: str) -> Tuple[bytes, ...]:
        """The routing signature of a benchmark program (memoized).

        The head of ``instruction_hash_chain`` over the *logical*
        circuit: device-independent, so every replica computes the same
        signature for the same program and affinity is well-defined
        across the fleet.
        """
        with self._lock:
            cached = self._signatures.get(program)
        if cached is not None:
            return cached
        circuit = get_benchmark(program).build()
        signature = instruction_hash_chain(circuit)[:_SIGNATURE_PREFIX]
        with self._lock:
            return self._signatures.setdefault(program, signature)

    def bind(
        self,
        request_key: str,
        tenant: Optional[str],
        spec,
    ) -> ReplicaBinding:
        """Route one request; sticky for the request's lifetime."""
        signature = self.signature_for(spec.program)
        pinned = getattr(spec, "replica", None)
        decision = self.router.place(
            self.replicas,
            request_key,
            tenant=tenant,
            signature=signature,
            pinned=pinned,
        )
        replica = self.replicas[decision.replica]
        replica.note_signature(signature)
        with replica._lock:
            replica.bindings += 1
            replica.placements += 1
        return ReplicaBinding(request_key, decision, replica)

    def release(self, binding: ReplicaBinding) -> None:
        self.router.release(binding.request_key)
        with binding.replica._lock:
            binding.replica.bindings = max(0, binding.replica.bindings - 1)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Fleet-wide snapshot: per-replica ledgers + router counters."""
        return {
            "size": self.size,
            "replicas": [replica.snapshot() for replica in self.replicas],
            "router": self.router.counters(),
        }

    def placement_map(self) -> Dict[str, int]:
        return self.router.placement_map()
