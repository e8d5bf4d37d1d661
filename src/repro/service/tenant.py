"""Tenants of the multi-tenant compile service: config, admission, ledger.

A *tenant* is one user of the :class:`~repro.service.angel_service.
AngelService` — its own FIFO request queue, its own token-bucket
admission control, its own fair-scheduling weight, and its own usage
ledger. Everything here is plain bookkeeping: the scheduling policy
lives in :mod:`repro.service.scheduler`, the request lifecycle in
:mod:`repro.service.angel_service`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..exceptions import ServiceError

__all__ = [
    "AdmissionError",
    "TenantConfig",
    "TokenBucket",
    "TenantState",
    "MIN_RETRY_AFTER_S",
]

#: Floor for admission retry hints. Under burst arrivals the bucket can
#: refill between a failed ``try_acquire`` and the ``retry_after_s``
#: probe, which would otherwise hand clients a zero (or, with a very
#: high refill rate, sub-microsecond) hint — and a zero hint turns
#: polite backoff into a hot retry loop.
MIN_RETRY_AFTER_S = 1e-3


class AdmissionError(ServiceError):
    """A submission bounced at admission control (token bucket empty).

    Attributes:
        retry_after_s: Host seconds until one token will be available.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant service policy.

    Attributes:
        name: Tenant identifier (also the metrics label:
            ``service.tenant.<name>.*``).
        rate: Token-bucket refill rate in requests per second;
            ``None`` disables admission control for this tenant.
        burst: Bucket capacity — how many requests may arrive
            back-to-back before the rate limit bites.
        quantum: Deficit-round-robin quantum in probe *jobs* per round.
            A tenant accrues this much deficit each scheduling round it
            has work queued; larger quanta mean a larger share of each
            scheduling round.
    """

    name: str
    rate: Optional[float] = None
    burst: int = 8
    quantum: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("tenant name must be non-empty")
        if self.rate is not None and self.rate <= 0:
            raise ServiceError("tenant rate must be positive when set")
        if self.burst < 1:
            raise ServiceError("tenant burst must be >= 1")
        if self.quantum < 1:
            raise ServiceError("tenant quantum must be >= 1")


class TokenBucket:
    """Classic token-bucket admission control, on host monotonic time.

    ``rate`` tokens per second refill up to ``burst``; each admitted
    request spends one. ``now`` is injectable for deterministic tests.
    """

    def __init__(
        self, rate: float, burst: int, now: Optional[float] = None
    ) -> None:
        if rate <= 0:
            raise ServiceError("token bucket rate must be positive")
        if burst < 1:
            raise ServiceError("token bucket burst must be >= 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._updated = now if now is not None else time.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, now: Optional[float] = None) -> bool:
        """Spend one token if available; never blocks."""
        with self._lock:
            self._refill(now if now is not None else time.monotonic())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def retry_after_s(self, now: Optional[float] = None) -> float:
        """Host seconds until one token will have refilled.

        Returns ``0.0`` only when a token is available *right now*;
        otherwise the hint is clamped to at least
        :data:`MIN_RETRY_AFTER_S` so callers never busy-spin on a
        zero/negative wait.
        """
        with self._lock:
            self._refill(now if now is not None else time.monotonic())
            if self._tokens >= 1.0:
                return 0.0
            return max(
                MIN_RETRY_AFTER_S, (1.0 - self._tokens) / self.rate
            )


class TenantState:
    """One tenant's live service state: queue, bucket, deficit, ledger.

    The queue holds request entries owned by the service (opaque here);
    the scheduler reads/writes ``deficit`` under the service lock. The
    ledger counters power the ``service.tenant.<name>.*`` metrics and
    the per-tenant rows of the load bench.
    """

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.queue: Deque = deque()
        self.bucket = (
            TokenBucket(config.rate, config.burst)
            if config.rate is not None
            else None
        )
        self.deficit = 0.0
        # Ledger ------------------------------------------------------
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.probes = 0
        self.dedup_hits = 0
        self.rounds = 0
        self.queue_wait_s: List[float] = []
        self.latency_s: List[float] = []

    @property
    def name(self) -> str:
        return self.config.name

    def admit(self) -> None:
        """Admission control for one submission; raises on bounce."""
        self.submitted += 1
        if self.bucket is not None and not self.bucket.try_acquire():
            self.rejected += 1
            # The bucket may have refilled since try_acquire failed
            # (burst arrivals race the refill clock); this admission
            # still bounced, so the hint must stay positive.
            retry_after = max(
                MIN_RETRY_AFTER_S, self.bucket.retry_after_s()
            )
            raise AdmissionError(
                f"tenant {self.name!r} admission bucket empty "
                f"(rate {self.config.rate}/s, burst {self.config.burst}); "
                f"retry in {retry_after:.3f}s",
                retry_after_s=retry_after,
            )

    def ledger(self) -> Dict[str, object]:
        """JSON-able per-tenant usage snapshot."""
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "probes": self.probes,
            "dedup_hits": self.dedup_hits,
            "rounds": self.rounds,
            "queued": len(self.queue),
            "queue_wait_s": list(self.queue_wait_s),
            "latency_s": list(self.latency_s),
        }
