"""The density-matrix state the device's distribution pipeline evolves.

The state is a rank-``2n`` tensor: axes ``0..n-1`` are ket (row) indices
and axes ``n..2n-1`` are bra (column) indices, big-endian within each
half. A channel is applied as one superoperator, contracted against the
acted-on qubits' ket *and* bra axes, costing ``O(4^n)`` per contraction —
ample for the paper's 2–5 qubit benchmarks and usable up to ~10 qubits.

The paper's effects are *open-system* effects: depolarizing noise, T1/T2
decay, coherent over-rotations, and readout confusion. A state-vector
Monte-Carlo could model them too, but the density matrix gives exact
noisy distributions, which keeps the experiment harness deterministic
apart from explicit shot sampling.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .channels import ReadoutError, Superoperator

__all__ = ["DensityMatrix"]

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
