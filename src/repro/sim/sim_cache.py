"""The exact-distribution pipeline and its cross-request memo.

Every device job needs one exact noisy output distribution. A device
with a channel cache computes it here, in one path:

1. **Lower and fuse** — :class:`~repro.sim.circuit_compiler.CircuitCompiler`
   flattens the circuit through the device's fused per-gate operation
   compiler and collapses runs of operators into single superoperators,
   cutting the ``O(4^n)`` contraction count before any state work.
2. **Evolve** ``|0..0>`` through the fused stream.
3. **Apply readout** — measured-qubit marginal, readout confusion and
   the ``p > 1e-14`` filter.

Jobs run one after another on one drifting device, and every job
advances its clock, so nothing one job computes is valid for the next
job on the same device. The oracle
:meth:`~repro.device.device.RigettiAspenDevice.noisy_distribution` does
not advance the clock, so the exact sweeps of the paper experiments
(``fig6``, ``fig12``, ``fig19``, ``ablation_budget``) evaluate many
circuits at one parameter state. Those circuits share instruction
prefixes and some repeat, yet the pipeline keeps no per-state memo for
them either: each is lowered and evolved in full. The only memo is
cross-request: with a
:class:`~repro.service.dedup.ProbeDistributionStore` attached, each
distribution is keyed by the device's full parameter fingerprint plus
placement, circuit fingerprint and readout, and any device at the
identical physics state is served the stored distribution instead of
simulating it. ``dist_hits`` counts distributions served from the
store, ``dist_misses`` distributions simulated.

Layer fusion reassociates floating-point products (~1e-15 relative
slack against the unfused per-gate path a device without this cache
runs); the contract against that reference is pinned in
``tests/test_sim_cache.py`` and ``tests/test_equivalence_matrix.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit
from .channels import ReadoutError
from .circuit_compiler import CircuitCompiler, circuit_fingerprint
from .density_matrix import DensityMatrix, _apply_readout_confusion

__all__ = ["SimulationCache"]


class SimulationCache:
    """A device's distribution pipeline, optionally backed by a store.

    It holds no per-epoch state, so drift never has to flush it: the
    shared store's keys carry the device's parameter fingerprint.
    """

    def __init__(self) -> None:
        self._shared_store = None
        self._shared_key: Optional[Callable[[], object]] = None
        self.dist_hits = 0
        self.dist_misses = 0
        self.shared_publishes = 0

    def attach_shared_store(
        self, store, state_key: Callable[[], object]
    ) -> None:
        """Consult/publish exact distributions through a shared store.

        ``store`` needs ``get(key)``/``put(key, distribution)`` (e.g.
        :class:`~repro.service.dedup.ProbeDistributionStore`);
        ``state_key`` is called per lookup and must change whenever this
        device's physics change (the device's ``parameter_fingerprint``).
        A hit is the exact dict the producing device computed, so it
        serves any request whose device reaches the identical state.
        """
        self._shared_store = store
        self._shared_key = state_key

    def distribution(
        self,
        circuit: QuantumCircuit,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
        operation_compiler: Optional[Callable] = None,
        noise_callback: Optional[Callable] = None,
        placement: Tuple = (),
    ) -> Dict[str, float]:
        """Exact noisy distribution, from the store or simulated.

        Mirrors :meth:`DensityMatrixSimulator.distribution` semantics
        exactly — measured-qubit marginal, readout confusion, the
        ``p > 1e-14`` filter, big-endian keys — so the device can sample
        shots from the result interchangeably.

        ``placement`` is the physical-qubit context (the device passes
        its compacted ``used`` tuple): two compact circuits with equal
        local content but different physical qubits see different noise,
        so placement is part of the store key.
        """
        key = None
        if self._shared_store is not None:
            key = (
                self._shared_key(),
                (placement, circuit_fingerprint(circuit)),
                self._readout_key(readout_errors),
            )
            shared = self._shared_store.get(key)
            if shared is not None:
                self.dist_hits += 1
                return shared
        self.dist_misses += 1
        lowered = CircuitCompiler(operation_compiler, noise_callback).lower(
            circuit
        )
        state = DensityMatrix(lowered.num_qubits)
        for op in lowered.operations:
            state.apply_superoperator(op.superop, op.qubits)
        result = self._finish(circuit, state, readout_errors)
        if key is not None:
            self._shared_store.put(key, result)
            self.shared_publishes += 1
        return result

    def distribution_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
        operation_compiler: Optional[Callable] = None,
        noise_callback: Optional[Callable] = None,
        placement: Tuple = (),
    ) -> List[Dict[str, float]]:
        """:meth:`distribution` for several circuits on one placement.

        Kept as a named entry point because ``bench/tracing.py`` wraps
        it as part of the ``sim.distribution`` layer.
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

    def stats(self) -> Dict[str, int]:
        """Flat counters; keys are prefixed to avoid colliding with
        ChannelCache keys when backends merge them."""
        return {
            "dist_hits": self.dist_hits,
            "dist_misses": self.dist_misses,
            "dist_shared_publishes": self.shared_publishes,
        }
