"""Cross-request probe deduplication for the multi-tenant service.

Two tenants compiling overlapping programs probe the same links with the
same CopyCat prefixes; when their devices sit at the identical physics
state, those probe jobs compute the identical exact distribution. The
:class:`ProbeDistributionStore` is a thread-safe, LRU-bounded map from
``(device parameter fingerprint, (placement, circuit fingerprint),
readout config)`` to the exact noisy output distribution. It is the
only distribution memo: each device's
:class:`~repro.sim.sim_cache.SimulationCache` consults it before
simulating and publishes what it simulates. The full physics
fingerprint in the key lets entries outlive any single device's drift
epoch.

Safety is by construction: a stored distribution is the exact dict some
device computed, and it is only ever served to a device whose
:meth:`~repro.device.device.RigettiAspenDevice.parameter_fingerprint`
matches the producer's. Shot sampling, clock accounting, and drift stay
per-request, so a dedup hit changes *which process computed the
distribution* and nothing else — results remain bit-identical to a
standalone run (pinned by ``tests/test_angel_service.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.device import RigettiAspenDevice

__all__ = ["ProbeDistributionStore"]

_DEFAULT_MAX_ENTRIES = 65536


class ProbeDistributionStore:
    """A thread-safe shared memo of exact probe distributions.

    Args:
        max_entries: LRU bound on stored distributions (probe
            distributions are small dicts — a few hundred bytes for
            Table I programs — so the default holds every probe a long
            replay produces).
    """

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, Dict[str, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.publishes = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key) -> Optional[Dict[str, float]]:
        """The stored distribution for ``key``, or ``None`` (counted)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return dict(entry)

    def put(self, key, distribution: Dict[str, float]) -> None:
        """Publish a computed distribution (copied; LRU-evicts to fit)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = dict(distribution)
            self.publishes += 1

    def attach(self, device: "RigettiAspenDevice") -> bool:
        """Wire a device's simulation cache through this store.

        Returns whether the device could participate: a device without
        a simulation cache (built with ``channel_cache=False``, or with
        ``sim_cache`` set to ``None``) runs the per-gate reference path,
        which never consults the store.
        """
        cache = getattr(device, "sim_cache", None)
        if cache is None:
            return False
        cache.attach_shared_store(self, device.parameter_fingerprint)
        return True

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "publishes": self.publishes,
                "evictions": self.evictions,
            }
