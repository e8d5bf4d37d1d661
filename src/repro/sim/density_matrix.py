"""Density-matrix simulator — the physics engine of the simulated device.

The state is a rank-``2n`` tensor: axes ``0..n-1`` are ket (row) indices
and axes ``n..2n-1`` are bra (column) indices, big-endian within each
half. Gates and Kraus channels are applied by contracting against the
relevant axes on both sides, costing ``O(4^n)`` per operator — ample for
the paper's 2–5 qubit benchmarks and usable up to ~10 qubits.

This simulator exists because the paper's effects are *open-system*
effects: depolarizing noise, T1/T2 decay, coherent over-rotations, and
readout confusion. A state-vector Monte-Carlo could model them too, but
the density matrix gives exact noisy distributions, which keeps the
experiment harness deterministic apart from explicit shot sampling.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import Gate
from ..exceptions import SimulationError
from .channels import KrausChannel, ReadoutError, Superoperator

__all__ = ["DensityMatrix", "DensityMatrixSimulator"]

_MAX_QUBITS = 10


class DensityMatrix:
    """A mutable mixed state on *num_qubits* qubits."""

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise SimulationError("need at least one qubit")
        if num_qubits > _MAX_QUBITS:
            raise SimulationError(
                f"density matrix limited to {_MAX_QUBITS} qubits"
            )
        self.num_qubits = num_qubits
        dim = 2**num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        self._tensor = rho.reshape((2,) * (2 * num_qubits))

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` copy of the state."""
        dim = 2**self.num_qubits
        return self._tensor.reshape(dim, dim).copy()

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        rho = self.matrix
        return float(np.real(np.trace(rho @ rho)))

    def _apply_left(
        self, matrix: np.ndarray, axes: Tuple[int, ...]
    ) -> None:
        """Contract *matrix* against the given tensor axes (in place)."""
        k = len(axes)
        op = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
        contracted = np.tensordot(
            op, self._tensor, axes=(list(range(k, 2 * k)), list(axes))
        )
        # Restore axis order: tensordot put the acted-on axes first.
        # argsort(current) is the inverse permutation — O(k log k)
        # instead of the O(k^2) list.index scan per axis.
        total_axes = 2 * self.num_qubits
        others = [a for a in range(total_axes) if a not in axes]
        current = np.array(list(axes) + others)
        self._tensor = np.transpose(contracted, np.argsort(current))

    def apply_unitary(self, matrix: np.ndarray, qubits: Tuple[int, ...]) -> None:
        """Apply ``rho -> U rho U^dag`` on the given qubits."""
        matrix = np.asarray(matrix, dtype=complex)
        ket_axes = tuple(qubits)
        bra_axes = tuple(q + self.num_qubits for q in qubits)
        self._apply_left(matrix, ket_axes)
        self._apply_left(matrix.conj(), bra_axes)

    def apply_gate(self, gate: Gate) -> None:
        if not gate.is_unitary:
            raise SimulationError(f"cannot apply non-unitary {gate.name!r}")
        self.apply_unitary(gate.matrix(), gate.qubits)

    def apply_channel(self, channel: KrausChannel, qubits: Tuple[int, ...]) -> None:
        """Apply a Kraus channel to the given qubits."""
        if channel.num_qubits != len(qubits):
            raise SimulationError(
                f"channel acts on {channel.num_qubits} qubits, "
                f"given {len(qubits)}"
            )
        ket_axes = tuple(qubits)
        bra_axes = tuple(q + self.num_qubits for q in qubits)
        original = self._tensor
        accumulated: Optional[np.ndarray] = None
        for op in channel.operators:
            self._tensor = original
            self._apply_left(np.asarray(op), ket_axes)
            self._apply_left(np.asarray(op).conj(), bra_axes)
            if accumulated is None:
                accumulated = self._tensor
            else:
                accumulated = accumulated + self._tensor
        assert accumulated is not None
        self._tensor = accumulated

    def apply_superoperator(
        self, superop: Superoperator, qubits: Tuple[int, ...]
    ) -> None:
        """Apply a vectorized channel in one contraction.

        The superoperator's row/column halves are (ket, bra) pairs, so
        contracting it against the state's ket axes *and* bra axes of
        the acted-on qubits applies the whole channel — however many
        Kraus operators it was fused from — in a single tensordot.
        """
        if superop.num_qubits != len(qubits):
            raise SimulationError(
                f"superoperator acts on {superop.num_qubits} qubits, "
                f"given {len(qubits)}"
            )
        axes = tuple(qubits) + tuple(q + self.num_qubits for q in qubits)
        self._apply_left(superop.matrix, axes)

    def probabilities(self, qubits: Optional[Iterable[int]] = None) -> np.ndarray:
        """Diagonal (measurement) probabilities over *qubits*.

        Marginalizes the unlisted qubits. Result is big-endian over the
        listed qubits in the given order.
        """
        dim = 2**self.num_qubits
        diag = np.real(np.diagonal(self._tensor.reshape(dim, dim)))
        diag = np.clip(diag, 0.0, None)
        tensor = diag.reshape((2,) * self.num_qubits)
        if qubits is None:
            return tensor.reshape(-1)
        qubits = tuple(qubits)
        others = tuple(q for q in range(self.num_qubits) if q not in qubits)
        marginal = tensor.sum(axis=others) if others else tensor
        kept_sorted = tuple(sorted(qubits))
        perm = [kept_sorted.index(q) for q in qubits]
        return np.transpose(marginal, perm).reshape(-1)


class DensityMatrixSimulator:
    """Execute circuits with optional per-instruction noise.

    The simulator is policy-free: callers supply a ``noise_callback`` that
    maps each instruction to the channels to apply after it. The device
    model (:mod:`repro.device`) provides that callback from its calibrated
    physics; tests can inject hand-built channels.

    An optional ``operation_compiler`` short-circuits the per-gate path:
    given an instruction it may return a full replacement sequence of
    ``(operator, qubits)`` pairs — ideal unitary *included* — where each
    operator is a :class:`~repro.sim.channels.Superoperator`,
    :class:`~repro.sim.channels.KrausChannel`, or plain unitary matrix.
    Returning ``None`` falls back to ``apply_gate`` + ``noise_callback``
    for that instruction. The device's channel cache uses this hook to
    execute each gate-plus-noise as one fused contraction.
    """

    def __init__(self, noise_callback=None, operation_compiler=None) -> None:
        self.noise_callback = noise_callback
        self.operation_compiler = operation_compiler

    def run(self, circuit: QuantumCircuit) -> DensityMatrix:
        """Evolve |0..0><0..0| through the circuit's unitary part."""
        state = DensityMatrix(circuit.num_qubits)
        compiler = self.operation_compiler
        for gate in circuit:
            if not gate.is_unitary:
                continue
            if compiler is not None:
                operations = compiler(gate)
                if operations is not None:
                    for operator, qubits in operations:
                        if isinstance(operator, Superoperator):
                            state.apply_superoperator(operator, tuple(qubits))
                        elif isinstance(operator, KrausChannel):
                            state.apply_channel(operator, tuple(qubits))
                        else:
                            state.apply_unitary(operator, tuple(qubits))
                    continue
            state.apply_gate(gate)
            if self.noise_callback is not None:
                for channel, qubits in self.noise_callback(gate):
                    state.apply_channel(channel, tuple(qubits))
        return state

    def distribution(
        self,
        circuit: QuantumCircuit,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]] = None,
    ) -> Dict[str, float]:
        """Exact noisy output distribution over the measured qubits.

        Args:
            circuit: The circuit; its measured qubits define the output
                register (all qubits if it has no measurements).
            readout_errors: Optional per-physical-qubit readout confusion;
                indexed by qubit, entries may be ``None`` for ideal
                readout.
        """
        state = self.run(circuit)
        measured = circuit.measured_qubits() or tuple(range(circuit.num_qubits))
        probs = state.probabilities(measured)
        if readout_errors is not None:
            probs = _apply_readout_confusion(probs, measured, readout_errors)
        width = len(measured)
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > 1e-14
        }

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        rng: np.random.Generator,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]] = None,
    ) -> Dict[str, int]:
        """Shot-sampled counts from the noisy distribution."""
        distribution = self.distribution(circuit, readout_errors)
        keys = sorted(distribution)
        probs = np.array([distribution[k] for k in keys])
        probs = probs / probs.sum()
        outcomes = rng.choice(len(keys), size=shots, p=probs)
        values, frequencies = np.unique(outcomes, return_counts=True)
        return {
            keys[int(value)]: int(frequency)
            for value, frequency in zip(values, frequencies)
        }


def _apply_readout_confusion(
    probs: np.ndarray,
    measured: Tuple[int, ...],
    readout_errors: Sequence[Optional[ReadoutError]],
) -> np.ndarray:
    """Apply per-qubit confusion matrices to a probability vector."""
    width = len(measured)
    tensor = probs.reshape((2,) * width)
    for position, qubit in enumerate(measured):
        error = readout_errors[qubit] if qubit < len(readout_errors) else None
        if error is None:
            continue
        confusion = error.confusion_matrix()
        tensor = np.tensordot(confusion, tensor, axes=([1], [position]))
        tensor = np.moveaxis(tensor, 0, position)
    flat = tensor.reshape(-1)
    return np.clip(flat, 0.0, None) / max(flat.sum(), 1e-300)
