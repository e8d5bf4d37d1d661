"""Drift-keyed simulation cache hierarchy for probe workloads.

ANGEL's localized search submits ``1 + 2L`` CopyCat probes per pass;
mass-replacement candidates differ from the baseline only at one link's
sites, and probes batched inside a single calibration window run under
identical noise parameters. Re-evolving every probe from ``|0..0>`` is
therefore mostly redundant work. This module stacks three memoization
levels above the per-gate :class:`~repro.sim.channel_cache.ChannelCache`,
all invalidated together when the device's ``drift_epoch`` bumps so no
entry ever outlives the noise parameters it encodes:

1. **Lowering + layer fusion** — on a distribution miss, circuits are
   flattened into fused superoperator streams by
   :class:`~repro.sim.circuit_compiler.CircuitCompiler`, cutting the
   ``O(4^n)`` contraction count before any state work happens; fused
   products are memoized across lowerings within an epoch.
2. **Prefix-state memoization** — :class:`PrefixStateCache` snapshots
   the density matrix at checkpoints along the lowered stream, keyed by
   the rolling hash of operator fingerprints, so probe candidates
   sharing an instruction prefix replay it once. Snapshots are real
   memory (a 10-qubit state is 16 MB), so the cache runs under a byte
   budget with LRU eviction.
3. **Distribution caching** — the exact noisy output distribution is
   memoized by ``(circuit fingerprint, readout config)``; identical
   probes within a window skip simulation entirely and only re-draw
   shots.

Hits at every level are *exact* replays of previously computed arrays,
so cached results are bit-identical to the first computation within an
epoch. Layer fusion itself reassociates floating-point products
(~1e-15 relative slack versus the unfused stream); the A/B contract
against the fully uncached path is pinned in ``tests/test_sim_cache.py``
and ``benchmarks/bench_sim_cache.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from .channels import ReadoutError
from .circuit_compiler import (
    CircuitCompiler,
    LoweredCircuit,
    circuit_fingerprint,
)
from .density_matrix import DensityMatrix, _apply_readout_confusion

__all__ = ["PrefixStateCache", "SimulationCache"]

# 128 MB default: ~8000 five-qubit snapshots, ~8 ten-qubit ones.
_DEFAULT_PREFIX_BYTES = 128 * 1024 * 1024
# Entry caps: memoized distributions (LRU) and fused products (flushed
# wholesale when an epoch outgrows it).
_MAX_DISTRIBUTIONS = 4096
_MAX_PRODUCTS = 4096
# One circuit's checkpoints may claim at most this fraction of the
# byte budget, so a deep circuit cannot flush the whole cache.
_CHECKPOINT_BUDGET_FRACTION = 8


class PrefixStateCache:
    """LRU density-matrix snapshots under a byte budget.

    Keys are rolling prefix hashes from
    :class:`~repro.sim.circuit_compiler.CircuitCompiler`; values are
    state tensors (stored as copies, treated as immutable). Lookup walks
    a circuit's hash chain backwards for the *longest* cached prefix.
    """

    def __init__(self, max_bytes: int = _DEFAULT_PREFIX_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def longest_prefix(
        self, keys: Sequence[bytes]
    ) -> Tuple[int, Optional[np.ndarray]]:
        """Longest cached prefix of a hash chain.

        ``keys[i]`` names the state after operator ``i``; returns
        ``(i + 1, tensor)`` for the deepest hit (the tensor must be
        copied before mutation) or ``(0, None)``. Counts one hit or
        one miss per lookup, not per probe step.
        """
        for index in range(len(keys) - 1, -1, -1):
            tensor = self._entries.get(keys[index])
            if tensor is not None:
                self._entries.move_to_end(keys[index])
                self.hits += 1
                return index + 1, tensor
        self.misses += 1
        return 0, None

    def put(self, key: bytes, tensor: np.ndarray) -> None:
        """Store a snapshot (copied), evicting LRU entries to fit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        nbytes = tensor.nbytes
        if nbytes > self.max_bytes:
            return
        while self._entries and self.bytes + nbytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= evicted.nbytes
            self.evictions += 1
        self._entries[key] = tensor.copy()
        self.bytes += nbytes
        self.stores += 1

    def invalidate(self) -> None:
        """Drop every snapshot (the noise parameters moved)."""
        self._entries.clear()
        self.bytes = 0
        self.invalidations += 1

    def stats(self) -> Dict[str, int]:
        return {
            "prefix_hits": self.hits,
            "prefix_misses": self.misses,
            "prefix_entries": len(self._entries),
            "prefix_bytes": self.bytes,
            "prefix_stores": self.stores,
            "prefix_evictions": self.evictions,
        }


class SimulationCache:
    """The three-level hierarchy, owned by a device.

    All levels are flushed together by :meth:`invalidate` when the
    device's ``drift_epoch`` bumps, mirroring the ChannelCache contract:
    epoch membership is enforced by invalidation, so keys never need to
    carry the epoch explicitly.

    Args:
        prefix_bytes: Byte budget for prefix snapshots.
    """

    def __init__(self, prefix_bytes: int = _DEFAULT_PREFIX_BYTES) -> None:
        self.prefix = PrefixStateCache(prefix_bytes)
        self._distributions: "OrderedDict[Tuple, Dict[str, float]]" = (
            OrderedDict()
        )
        # Fused superoperator products, shared across lowerings within
        # an epoch (probe variants re-fuse mostly identical streams).
        self._products: Dict[Tuple, object] = {}
        self.epoch = 0
        self.dist_hits = 0
        self.dist_misses = 0
        self.dist_evictions = 0
        # Optional cross-device distribution store (multi-tenant dedup).
        self._shared_store = None
        self._shared_key: Optional[Callable[[], object]] = None
        self.shared_hits = 0
        self.shared_publishes = 0
        self.ops_replayed = 0
        self.ops_skipped = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Invalidation (the drift contract)
    # ------------------------------------------------------------------
    def invalidate(self, epoch: int) -> None:
        """Flush every level; entries never outlive their noise epoch."""
        self._distributions.clear()
        self._products.clear()
        self.prefix.invalidate()
        self.epoch = epoch
        self.invalidations += 1

    # ------------------------------------------------------------------
    # Cross-device sharing (multi-tenant probe dedup)
    # ------------------------------------------------------------------
    def attach_shared_store(
        self, store, state_key: Callable[[], object]
    ) -> None:
        """Consult/publish exact distributions through a shared store.

        ``store`` needs ``get(key)``/``put(key, distribution)`` (e.g.
        :class:`~repro.service.dedup.ProbeDistributionStore`);
        ``state_key`` is called per lookup and must change whenever this
        device's physics change (the device's ``parameter_fingerprint``).
        Unlike the local levels, shared entries are keyed by the *full*
        physics state rather than flushed on epoch bumps, so one
        request's computed distribution outlives its epoch and serves
        any other request whose device reaches the identical state —
        exactness is inherited from the local memo contract (a shared
        hit is the same dict the owning device computed).
        """
        self._shared_store = store
        self._shared_key = state_key

    def detach_shared_store(self) -> None:
        self._shared_store = None
        self._shared_key = None

    # ------------------------------------------------------------------
    # The cached distribution pipeline
    # ------------------------------------------------------------------
    def distribution(
        self,
        circuit: QuantumCircuit,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
        operation_compiler: Optional[Callable] = None,
        noise_callback: Optional[Callable] = None,
        placement: Tuple = (),
    ) -> Dict[str, float]:
        """Exact noisy distribution, memoized at every level.

        Mirrors :meth:`DensityMatrixSimulator.distribution` semantics
        exactly — measured-qubit marginal, readout confusion, the
        ``p > 1e-14`` filter, big-endian keys — so the device can sample
        shots from the result interchangeably.

        ``placement`` is the physical-qubit context (the device passes
        its compacted ``used`` tuple): two compact circuits with equal
        local content but different physical qubits see different noise,
        so placement is part of every key.
        """
        fingerprint = (placement, circuit_fingerprint(circuit))
        key = (fingerprint, self._readout_key(readout_errors))
        cached = self._lookup(key)
        if cached is not None:
            return cached
        lowered = self._lower(
            circuit, operation_compiler, noise_callback, placement
        )
        state = self._evolve(lowered)
        result = self._finish(circuit, state, readout_errors)
        self._store(key, result)
        return dict(result)

    def distribution_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
        operation_compiler: Optional[Callable] = None,
        noise_callback: Optional[Callable] = None,
        placement: Tuple = (),
    ) -> List[Dict[str, float]]:
        """:meth:`distribution` for several circuits on one placement.

        A duplicate circuit is simulated once: the distribution memo
        serves every repeat. Kept as a named entry point because
        ``bench/tracing.py`` wraps it as part of the ``sim.distribution``
        layer.
        """
        return [
            self.distribution(
                circuit, readout_errors, operation_compiler,
                noise_callback, placement,
            )
            for circuit in circuits
        ]

    @staticmethod
    def _readout_key(
        readout_errors: Optional[Sequence[Optional[ReadoutError]]]
    ) -> Tuple:
        return tuple(
            None if error is None else (error.p0_given_1, error.p1_given_0)
            for error in (readout_errors or ())
        )

    def _lookup(self, key: Tuple) -> Optional[Dict[str, float]]:
        """Consult the local memo, then the shared store; count once."""
        cached = self._distributions.get(key)
        if cached is not None:
            self._distributions.move_to_end(key)
            self.dist_hits += 1
            return dict(cached)
        self.dist_misses += 1
        if self._shared_store is not None:
            shared = self._shared_store.get((self._shared_key(), key))
            if shared is not None:
                self.shared_hits += 1
                while len(self._distributions) >= _MAX_DISTRIBUTIONS:
                    self._distributions.popitem(last=False)
                    self.dist_evictions += 1
                self._distributions[key] = dict(shared)
                return dict(shared)
        return None

    def _store(self, key: Tuple, result: Dict[str, float]) -> None:
        while len(self._distributions) >= _MAX_DISTRIBUTIONS:
            self._distributions.popitem(last=False)
            self.dist_evictions += 1
        self._distributions[key] = result
        if self._shared_store is not None:
            self._shared_store.put((self._shared_key(), key), result)
            self.shared_publishes += 1

    @staticmethod
    def _finish(
        circuit: QuantumCircuit,
        state: DensityMatrix,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
    ) -> Dict[str, float]:
        """Measured-marginal + readout confusion + result-dict build."""
        measured = circuit.measured_qubits() or tuple(
            range(circuit.num_qubits)
        )
        probs = state.probabilities(measured)
        if readout_errors is not None:
            probs = _apply_readout_confusion(probs, measured, readout_errors)
        width = len(measured)
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > 1e-14
        }

    def _lower(
        self,
        circuit: QuantumCircuit,
        operation_compiler: Optional[Callable],
        noise_callback: Optional[Callable],
        placement: Tuple,
    ) -> LoweredCircuit:
        """Level 1: lowering + fusion, sharing this epoch's products."""
        if len(self._products) > _MAX_PRODUCTS:
            self._products.clear()  # epoch outlived its working set
        compiler = CircuitCompiler(
            operation_compiler,
            noise_callback,
            hash_seed=placement,
            product_cache=self._products,
        )
        return compiler.lower(circuit)

    def _evolve(self, lowered: LoweredCircuit) -> DensityMatrix:
        """Level 2: replay from the deepest cached prefix snapshot."""
        operations = lowered.operations
        hashes = lowered.prefix_hashes
        covered = 0
        if operations:
            covered, tensor = self.prefix.longest_prefix(hashes)
            if tensor is not None:
                state = DensityMatrix.from_snapshot(
                    lowered.num_qubits, tensor
                )
                self.ops_skipped += covered
            else:
                state = DensityMatrix(lowered.num_qubits)
        else:
            state = DensityMatrix(lowered.num_qubits)
        stride = self._checkpoint_stride(
            len(operations), state.snapshot().nbytes
        )
        for index in range(covered, len(operations)):
            op = operations[index]
            state.apply_superoperator(op.superop, op.qubits)
            self.ops_replayed += 1
            if (index + 1) % stride == 0 or index + 1 == len(operations):
                self.prefix.put(hashes[index], state._tensor)
        return state

    def _checkpoint_stride(self, num_ops: int, snapshot_bytes: int) -> int:
        """Checkpoint every N ops so one circuit stays within its slice
        of the byte budget (deep circuits checkpoint sparsely instead of
        flushing everything else)."""
        if num_ops == 0:
            return 1
        slice_bytes = max(1, self.prefix.max_bytes // _CHECKPOINT_BUDGET_FRACTION)
        max_snapshots = max(1, slice_bytes // max(1, snapshot_bytes))
        return max(1, -(-num_ops // max_snapshots))

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Flat counters; sim-specific keys are prefixed to avoid
        colliding with ChannelCache keys when backends merge them."""
        stats = {
            "dist_hits": self.dist_hits,
            "dist_misses": self.dist_misses,
            "dist_entries": len(self._distributions),
            "dist_evictions": self.dist_evictions,
            "ops_replayed": self.ops_replayed,
            "ops_skipped": self.ops_skipped,
            "dist_shared_hits": self.shared_hits,
            "dist_shared_publishes": self.shared_publishes,
            "sim_invalidations": self.invalidations,
            "sim_epoch": self.epoch,
        }
        stats.update(self.prefix.stats())
        return stats
