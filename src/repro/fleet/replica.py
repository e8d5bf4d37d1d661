"""Fleet replicas: frozen device recipes plus live operational ledgers.

A *replica* is one emulated Aspen chip in a device fleet — the same
topology preset as every other replica, but an **independent seeded
drift process**, its own calibration cadence phase, and (optionally)
its own cloud fault profile. The paper studies whether ANGEL's winning
native-gate sequence survives *drift on one device* (Fig. 21/22); a
fleet of replicas is the cross-device extension of that question.

Two layers live here:

* :class:`ReplicaSpec` — the frozen recipe. It does **not** hold a
  device; it holds the *adjustments* applied to a request's
  :class:`~repro.service.angel_service.RequestSpec` when the request is
  bound to this replica (seed offset, calibration-seed offset, drift
  stagger, fault profile). Replica 0 is always the identity adjustment,
  which is what makes a 1-replica fleet bit-identical to
  :func:`~repro.service.angel_service.run_standalone`.
* :class:`FleetReplica` — the live ledger the router reads: queue
  depth in probe jobs, cumulative simulated device time, a bounded set
  of recently-seen circuit prefix signatures (for prefix-cache
  affinity), and the replica's private
  :class:`~repro.service.dedup.ProbeDistributionStore` partition.

Requests stay **isolated**: binding to a replica never shares mutable
physics — each request still builds its own device from the adjusted
spec. The replica is the *routing identity* (which chip-day recipe,
which dedup partition, which operational queue), so two requests bound
to the same replica see the same ``parameter_fingerprint`` trajectory
and can share probe distributions, while requests on different
replicas cannot (different seeds ⇒ different fingerprints).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..exceptions import ServiceError

__all__ = ["ReplicaSpec", "FleetSpec", "FleetReplica"]

_HOUR_US = 3_600e6

#: Default strides between consecutive replicas' seeds. Any nonzero
#: stride gives an independent drift process; primes keep accidental
#: collisions with user-chosen request seeds unlikely.
DEFAULT_SEED_STRIDE = 1009
DEFAULT_CALIBRATION_STRIDE = 7
DEFAULT_FAULT_SEED_STRIDE = 101


@dataclass(frozen=True)
class ReplicaSpec:
    """Frozen recipe for one fleet replica.

    Attributes:
        index: Position in the fleet (0-based); also the tie-break key
            for the router.
        name: Display / metrics label (``fleet.replica.<index>.*``).
        seed_offset: Added to a bound request's device seed — a
            different seed is a different chip-day with an independent
            drift trajectory. Zero on replica 0.
        calibration_seed_offset: Added to the calibration seed (each
            replica's characterization has its own estimation noise).
        drift_offset_hours: Calibration-cadence stagger — how much
            further this replica has drifted past its last full
            calibration than replica 0. Added to the request's
            ``drift_hours``.
        calibration_window_hours: Length of this replica's calibration
            window, used by the router's freshness score.
        fault_profile: Per-replica cloud fault profile override
            (``None`` keeps the request's own profile).
        fault_seed_offset: Added to the request's fault seed when a
            profile override is active.
    """

    index: int
    name: str
    seed_offset: int = 0
    calibration_seed_offset: int = 0
    drift_offset_hours: float = 0.0
    calibration_window_hours: float = 4.0
    fault_profile: Optional[str] = None
    fault_seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ServiceError("replica index must be >= 0")
        if self.calibration_window_hours <= 0:
            raise ServiceError("calibration window must be positive")

    @property
    def is_identity(self) -> bool:
        """Whether binding here leaves a request spec unchanged."""
        return (
            self.seed_offset == 0
            and self.calibration_seed_offset == 0
            and self.drift_offset_hours == 0.0
            and self.fault_profile is None
        )

    def adjust(self, spec):
        """The replica-local view of a request spec.

        Works on any frozen dataclass exposing ``seed``,
        ``calibration_seed``, ``drift_hours``, ``fault_profile`` and
        ``fault_seed`` fields (in practice :class:`RequestSpec`), so
        this module never imports the service layer.
        """
        changes = {
            "seed": spec.seed + self.seed_offset,
            "calibration_seed": (
                spec.calibration_seed + self.calibration_seed_offset
            ),
            "drift_hours": spec.drift_hours + self.drift_offset_hours,
        }
        if self.fault_profile is not None:
            changes["fault_profile"] = self.fault_profile
            changes["fault_seed"] = spec.fault_seed + self.fault_seed_offset
        return dataclasses.replace(spec, **changes)


@dataclass(frozen=True)
class FleetSpec:
    """An ordered, frozen set of replica recipes."""

    replicas: Tuple[ReplicaSpec, ...]

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ServiceError("a fleet needs at least one replica")
        for position, replica in enumerate(self.replicas):
            if replica.index != position:
                raise ServiceError(
                    f"replica at position {position} has index "
                    f"{replica.index}; fleet indices must be 0..N-1"
                )
        if not self.replicas[0].is_identity:
            raise ServiceError(
                "replica 0 must be the identity adjustment so a "
                "1-replica fleet matches run_standalone bit-for-bit"
            )

    @property
    def size(self) -> int:
        return len(self.replicas)

    @classmethod
    def create(
        cls,
        size: int,
        seed_stride: int = DEFAULT_SEED_STRIDE,
        calibration_stride: int = DEFAULT_CALIBRATION_STRIDE,
        stagger_hours: float = 0.0,
        window_hours: float = 4.0,
        fault_profiles: Sequence[Optional[str]] = (),
        fault_seed_stride: int = DEFAULT_FAULT_SEED_STRIDE,
    ) -> "FleetSpec":
        """Derive ``size`` replicas from strides.

        Replica ``i`` drifts on seed offset ``i * seed_stride`` and sits
        ``i * stagger_hours`` deeper into its calibration window
        (staggered cadences). ``fault_profiles`` cycles across replicas
        1..N-1; replica 0 always stays the identity.
        """
        if size < 1:
            raise ServiceError("fleet size must be >= 1")
        if seed_stride == 0 and size > 1:
            raise ServiceError(
                "seed_stride must be nonzero: replicas need "
                "independent drift processes"
            )
        replicas = []
        for index in range(size):
            profile: Optional[str] = None
            if index > 0 and fault_profiles:
                profile = fault_profiles[(index - 1) % len(fault_profiles)]
            replicas.append(
                ReplicaSpec(
                    index=index,
                    name=f"replica-{index}",
                    seed_offset=index * seed_stride,
                    calibration_seed_offset=index * calibration_stride,
                    drift_offset_hours=index * stagger_hours,
                    calibration_window_hours=window_hours,
                    fault_profile=profile,
                    fault_seed_offset=(
                        index * fault_seed_stride if profile else 0
                    ),
                )
            )
        return cls(replicas=tuple(replicas))


class FleetReplica:
    """One replica's live operational state (thread-safe).

    The router reads this ledger to place requests; the
    :class:`~repro.fleet.service.FleetBackend` facade writes it as
    batches flow through. ``store`` is the replica's private
    probe-distribution partition — dedup never crosses replicas
    because their ``parameter_fingerprint`` trajectories differ.
    """

    def __init__(
        self,
        spec: ReplicaSpec,
        store=None,
        affinity_capacity: int = 256,
    ) -> None:
        self.spec = spec
        self.store = store
        self._lock = threading.Lock()
        self._signatures: "OrderedDict[bytes, None]" = OrderedDict()
        self._affinity_capacity = int(affinity_capacity)
        # Ledger ------------------------------------------------------
        self.queue_depth = 0
        self.peak_queue_depth = 0
        self.bindings = 0
        self.placements = 0
        self.jobs = 0
        self.batches = 0
        self.device_time_us = 0.0

    @property
    def index(self) -> int:
        return self.spec.index

    @property
    def name(self) -> str:
        return self.spec.name

    # ------------------------------------------------------------------
    # Accounting (written by FleetBackend / FleetService)
    # ------------------------------------------------------------------
    def begin_batch(self, num_jobs: int) -> int:
        """Jobs entered the replica's queue; returns the new depth."""
        with self._lock:
            self.queue_depth += num_jobs
            self.peak_queue_depth = max(
                self.peak_queue_depth, self.queue_depth
            )
            return self.queue_depth

    def finish_batch(self, num_jobs: int, device_time_us: float) -> None:
        """Jobs left the queue after consuming simulated device time."""
        with self._lock:
            self.queue_depth = max(0, self.queue_depth - num_jobs)
            self.jobs += num_jobs
            self.batches += 1
            self.device_time_us += float(device_time_us)

    def note_signature(self, signature: Sequence[bytes]) -> None:
        """Remember a request's circuit prefix chain (bounded LRU)."""
        with self._lock:
            for digest in signature:
                if digest in self._signatures:
                    self._signatures.move_to_end(digest)
                else:
                    self._signatures[digest] = None
            while len(self._signatures) > self._affinity_capacity:
                self._signatures.popitem(last=False)

    # ------------------------------------------------------------------
    # Router signals
    # ------------------------------------------------------------------
    def affinity(self, signature: Sequence[bytes]) -> float:
        """Fraction of the prefix chain this replica has seen recently.

        1.0 means a request with this instruction prefix already ran
        here, so its distributions may sit in the replica's dedup
        partition.
        """
        if not signature:
            return 0.0
        with self._lock:
            seen = sum(
                1 for digest in signature if digest in self._signatures
            )
        return seen / len(signature)

    def freshness(self) -> float:
        """Remaining fraction of the current calibration window.

        The replica's clock is its cumulative simulated device time
        plus its cadence stagger; freshness decays linearly to 0 as the
        window ages, then snaps back at the (emulated) recalibration.
        """
        window_us = self.spec.calibration_window_hours * _HOUR_US
        with self._lock:
            clock = self.device_time_us
        phase = (clock + self.spec.drift_offset_hours * _HOUR_US) % window_us
        return 1.0 - phase / window_us

    def snapshot(self) -> Dict[str, object]:
        """JSON-able ledger for reports and the bench."""
        with self._lock:
            data: Dict[str, object] = {
                "index": self.spec.index,
                "name": self.spec.name,
                "queue_depth": self.queue_depth,
                "peak_queue_depth": self.peak_queue_depth,
                "bindings": self.bindings,
                "placements": self.placements,
                "jobs": self.jobs,
                "batches": self.batches,
                "device_time_us": self.device_time_us,
                "signatures": len(self._signatures),
            }
        data["freshness"] = self.freshness()
        if self.store is not None:
            data["store"] = self.store.stats()
        return data
