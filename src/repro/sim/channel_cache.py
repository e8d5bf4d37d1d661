"""Memoization of noise-channel construction, invalidated by drift.

Building a gate's fused superoperator — its ideal unitary followed by
its coherent error, depolarizing and thermal relaxation, an idle wire's
relaxation, or the spectator crosstalk coupling — is pure in the
device's *current* noise parameters: the same parameter values always
produce the same operator. The device therefore memoizes those
constructions here, keyed by gate and placement only, and ties the
entries to the parameter list they were built from (:attr:`ChannelCache.values`, the device's
``DriftState.current``): :meth:`~repro.device.device.RigettiAspenDevice.
advance_time` clears the cache (each drift bumps the device's
``drift_epoch``), and so does the device before building channels
whenever that list has been replaced since — an edited noise parameter
replaces it too — so a cached entry can never outlive the parameter
values it was built from.

The cache is deliberately generic — ``get(key, factory)`` — so it lives
below the device layer (which knows the physics constructors) without
importing it. Its counters are kept here only: ``--stats`` and the
metrics registry read them under ``cache`` through
:meth:`~repro.experiments.context.ExperimentContext.ledgers`, whether
the channel was built for an executor job or an exact sweep.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Tuple

__all__ = ["ChannelCache"]

#: Entries kept before the cache starts evicting its least recently
#: used entry on each insertion. Generous: a full Aspen-M-1 device has
#: ~100 (link, gate) pairs and ~80 qubits.
_DEFAULT_MAX_ENTRIES = 8192


class ChannelCache:
    """A drift-aware memo table for channel/superoperator construction.

    Attributes:
        hits / misses: Lookup counters since construction (never reset
            by invalidation, so throughput studies can integrate them).
        evictions: Entries dropped one at a time to stay within
            capacity (LRU: the least recently used entry goes first).
        invalidations: How many times the cache was cleared by drift.
        epoch: The drift epoch the current entries were built under.
        values: The parameter-value list the current entries were built
            from, compared by identity (``None`` until the owner sets
            it).
    """

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES) -> None:
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.epoch = 0
        self.values: Any = None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for *key*, building it on first use.

        A full cache evicts its least recently used entry rather than
        dropping the whole working set. Hits refresh recency, so
        non-uniform reuse (hot per-gate entries among one-shot prefix or
        distribution keys) keeps the hot set resident — the reason this
        is LRU and not the cheaper FIFO.
        """
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            while len(self._entries) >= self._max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            value = factory()
            self._entries[key] = value
            return value
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def invalidate(self, epoch: int, values: Any = None) -> None:
        """Drop every entry: the parameters they encode no longer hold.

        The next entries are built from *values* (see :attr:`values`).
        """
        if self._entries:
            self._entries.clear()
        self.invalidations += 1
        self.epoch = epoch
        self.values = values

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "epoch": self.epoch,
        }
