"""Quantum channels, as Kraus operators and as superoperators.

These are the noise primitives the simulated device composes per gate:
depolarizing (incoherent scrambling), amplitude damping (T1 energy
relaxation), phase damping (pure T2 dephasing), coherent error (a unitary
channel — the *state-dependent* component central to the paper's
argument), and classical readout bit-flip confusion.

A :class:`KrausChannel` lists operators with ``sum_i K_i^dag K_i = I``;
the device's fused path builds the same maps as :class:`Superoperator`
matrices in closed form (:func:`thermal_superoperator`, ``depolarized``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..linalg import kron_n

__all__ = [
    "KrausChannel",
    "Superoperator",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "two_qubit_depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "thermal_superoperator",
    "tensor_maps",
    "embedded_matrix",
    "compose_channels",
    "ReadoutError",
]

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class KrausChannel:
    """A completely-positive trace-preserving map in Kraus form.

    Attributes:
        operators: The Kraus operators, each ``d x d``.
        label: Human-readable description used in noise-model reports.
    """

    operators: Tuple[np.ndarray, ...]
    label: str = "channel"

    def __post_init__(self) -> None:
        if not self.operators:
            raise SimulationError("channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        for op in self.operators:
            if op.shape != (dim, dim):
                raise SimulationError("Kraus operators must share a shape")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def num_qubits(self) -> int:
        return int(math.log2(self.dim))

    def is_trace_preserving(self, atol: float = 1e-8) -> bool:
        total = sum(op.conj().T @ op for op in self.operators)
        return bool(np.allclose(total, np.eye(self.dim), atol=atol))

    def apply_to(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix of matching dimension."""
        return sum(op @ rho @ op.conj().T for op in self.operators)


@dataclass(frozen=True)
class Superoperator:
    """A channel as a dense linear map on vectorized density matrices.

    ``rho' = K rho K^dag`` summed over Kraus operators is linear in
    ``rho``; flattening ``rho`` row-major turns the channel into one
    ``d^2 x d^2`` matrix ``S = sum_i K_i (x) conj(K_i)``. Applying ``S``
    costs a single tensor contraction regardless of how many Kraus
    operators the channel has — this is the representation the device's
    channel cache stores for its fused per-gate fast path. Sequential
    channels compose by matrix product, so a gate's ideal unitary and
    its whole noise tail collapse into one operator.

    Attributes:
        matrix: The ``4^k x 4^k`` superoperator for a *k*-qubit map.
        label: Human-readable provenance for reports.
    """

    matrix: np.ndarray
    label: str = "superop"

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``d`` (the matrix is ``d^2 x d^2``)."""
        return int(round(math.sqrt(self.matrix.shape[0])))

    @property
    def num_qubits(self) -> int:
        return int(math.log2(self.dim))

    @classmethod
    def from_kraus(cls, channel: KrausChannel) -> "Superoperator":
        matrix = sum(
            np.kron(op, op.conj()) for op in channel.operators
        )
        return cls(np.asarray(matrix, dtype=complex), channel.label)

    @classmethod
    def from_unitary(
        cls, unitary: np.ndarray, label: str = "unitary"
    ) -> "Superoperator":
        unitary = np.asarray(unitary, dtype=complex)
        dim = unitary.shape[0]
        # np.kron(U, conj(U)) as one broadcast product: same values.
        matrix = unitary[:, None, :, None] * unitary.conj()[None, :, None, :]
        return cls(matrix.reshape(dim * dim, dim * dim), label)

    def then(self, later: "Superoperator") -> "Superoperator":
        """The map applying this superoperator first, then *later*."""
        if later.matrix.shape != self.matrix.shape:
            raise SimulationError(
                "cannot compose superoperators of different dimensions"
            )
        return Superoperator(
            later.matrix @ self.matrix, f"{later.label}∘{self.label}"
        )

    def embed(self, position: int, num_qubits: int) -> "Superoperator":
        """Embed a 1-qubit map into a *num_qubits* register at *position*."""
        if self.num_qubits != 1:
            raise SimulationError("embed expects a single-qubit map")
        return Superoperator(
            embedded_matrix(self.matrix, position, num_qubits),
            f"{self.label}@q{position}",
        )

    def depolarized(self, probability: float) -> "Superoperator":
        """This trace-preserving map ``S``, then depolarizing noise *p*.

        Depolarizing is ``(1 - q) rho + q Tr(rho) I/d`` with
        ``q = d^2 p / (d^2 - 1)``, and ``S`` preserves the trace, so the
        composition is ``(1 - q) S + q |vec(I/d)><vec(I)|``.
        """
        _check_probability(probability)
        dim = self.dim
        white = dim * dim * probability / (dim * dim - 1)
        identity = np.eye(dim).ravel()
        return Superoperator(
            (1.0 - white) * self.matrix
            + white * np.outer(identity / dim, identity),
            f"depolarizing(p={probability:.4g})∘{self.label}",
        )


def tensor_maps(
    maps: Sequence[Superoperator], label: str = "tensor"
) -> Superoperator:
    """The register superoperator of single-qubit maps, ``maps[q]`` on q.

    Rows index ``(ket_out, bra_out)`` and columns ``(ket_in, bra_in)``,
    each half big-endian over the qubits: each map's four axes are placed
    at their register positions, and one broadcast product tensors them.
    """
    return Superoperator(
        _tensor_matrices([superop.matrix for superop in maps]), label
    )


def _tensor_matrices(matrices: Sequence[np.ndarray]) -> np.ndarray:
    count = len(matrices)
    total = 1.0
    for qubit, matrix in enumerate(matrices):
        shape = [1] * (4 * count)
        shape[qubit::count] = [2] * 4
        total = total * matrix.reshape(shape)
    dim = 2**count
    return total.reshape(dim * dim, dim * dim)


def embedded_matrix(
    matrix: np.ndarray, position: int, num_qubits: int
) -> np.ndarray:
    """A single-qubit superoperator *matrix* embedded at *position* of a
    *num_qubits* register: the matrix of
    ``Superoperator(matrix).embed(position, num_qubits)``, bit for bit."""
    matrices = [_IDENTITY] * num_qubits
    matrices[position] = matrix
    return _tensor_matrices(matrices)


_IDENTITY = np.eye(4, dtype=complex)


def identity_channel(num_qubits: int = 1) -> KrausChannel:
    """The do-nothing channel on *num_qubits* qubits."""
    return KrausChannel((np.eye(2**num_qubits, dtype=complex),), "identity")


def unitary_channel(unitary: np.ndarray, label: str = "unitary") -> KrausChannel:
    """A purely coherent channel — the state-dependent error carrier."""
    return KrausChannel((np.asarray(unitary, dtype=complex),), label)


def depolarizing_channel(probability: float) -> KrausChannel:
    """Single-qubit depolarizing channel with error probability *p*.

    With probability *p* the state is replaced by one of X, Y, Z applied
    uniformly (the standard Pauli-twirl convention): Kraus weights
    ``sqrt(1 - p)`` on I and ``sqrt(p/3)`` on each Pauli.
    """
    _check_probability(probability)
    ops = [math.sqrt(1.0 - probability) * _PAULIS["I"]]
    ops.extend(
        math.sqrt(probability / 3.0) * _PAULIS[p] for p in ("X", "Y", "Z")
    )
    return KrausChannel(tuple(ops), f"depolarizing(p={probability:.4g})")


def two_qubit_depolarizing_channel(probability: float) -> KrausChannel:
    """Two-qubit depolarizing channel over the 15 non-identity Paulis."""
    _check_probability(probability)
    ops: List[np.ndarray] = [
        math.sqrt(1.0 - probability) * np.eye(4, dtype=complex)
    ]
    weight = math.sqrt(probability / 15.0)
    for name_a in "IXYZ":
        for name_b in "IXYZ":
            if name_a == name_b == "I":
                continue
            ops.append(weight * kron_n(_PAULIS[name_a], _PAULIS[name_b]))
    return KrausChannel(tuple(ops), f"depolarizing2(p={probability:.4g})")


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """T1 relaxation: |1> decays to |0> with probability *gamma*."""
    _check_probability(gamma)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), f"amplitude_damping(g={gamma:.4g})")


def phase_damping_channel(lam: float) -> KrausChannel:
    """Pure dephasing: off-diagonals shrink by ``sqrt(1 - lambda)``."""
    _check_probability(lam)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel((k0, k1), f"phase_damping(l={lam:.4g})")


def thermal_relaxation_channel(
    duration: float, t1: float, t2: float
) -> KrausChannel:
    """Combined T1/T2 decay over a pulse of the given *duration*.

    Implemented as amplitude damping with ``gamma = 1 - exp(-t/T1)``
    composed with pure dephasing chosen so the total off-diagonal decay
    matches ``exp(-t/T2)`` (requires the physical constraint
    ``T2 <= 2 T1``).
    """
    gamma, lam = _thermal_rates(duration, t1, t2)
    channel = compose_channels(
        amplitude_damping_channel(gamma), phase_damping_channel(lam)
    )
    return KrausChannel(
        channel.operators,
        f"thermal(t={duration:.3g},T1={t1:.3g},T2={t2:.3g})",
    )


def thermal_superoperator(
    duration: float, t1: float, t2: float
) -> Superoperator:
    """:func:`thermal_relaxation_channel` as a superoperator, in closed form.

    Populations relax toward ``|0>`` by ``gamma`` and coherences shrink by
    ``c = sqrt(1 - gamma) sqrt(1 - lambda)``, with the same ``gamma`` and
    ``lambda`` (and the same checks) as the Kraus construction.
    """
    gamma, lam = _thermal_rates(duration, t1, t2)
    coherence = math.sqrt(1.0 - gamma) * math.sqrt(1.0 - lam)
    matrix = np.diag([1.0, coherence, coherence, 1.0 - gamma]).astype(complex)
    matrix[0, 3] = gamma
    return Superoperator(matrix, "thermal")


def _thermal_rates(duration: float, t1: float, t2: float):
    """Amplitude-damping ``gamma`` and residual dephasing ``lambda``."""
    if duration < 0:
        raise SimulationError("duration must be non-negative")
    if t1 <= 0 or t2 <= 0:
        raise SimulationError("T1 and T2 must be positive")
    if t2 > 2 * t1 + 1e-12:
        raise SimulationError("unphysical relaxation: T2 > 2*T1")
    gamma = 1.0 - math.exp(-duration / t1)
    total_coherence = math.exp(-duration / t2)
    # amplitude damping alone decays coherence by sqrt(1-gamma); the
    # residual dephasing must supply the rest.
    residual = total_coherence / math.sqrt(1.0 - gamma) if gamma < 1 else 0.0
    residual = min(1.0, max(0.0, residual))
    return gamma, 1.0 - residual**2


def compose_channels(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """The channel applying *first* then *second* (both same dimension)."""
    if first.dim != second.dim:
        raise SimulationError("cannot compose channels of different dims")
    ops = tuple(
        b @ a for a in first.operators for b in second.operators
    )
    return KrausChannel(ops, f"{second.label}∘{first.label}")


@dataclass(frozen=True)
class ReadoutError:
    """Classical measurement confusion for one qubit.

    Attributes:
        p0_given_1: Probability of reading 0 when the qubit was 1 (T1-like
            decay during readout dominates, so typically larger).
        p1_given_0: Probability of reading 1 when the qubit was 0.
    """

    p0_given_1: float
    p1_given_0: float

    def __post_init__(self) -> None:
        _check_probability(self.p0_given_1)
        _check_probability(self.p1_given_0)

    @property
    def assignment_fidelity(self) -> float:
        """Average probability of a correct readout, ``1 - (e01+e10)/2``."""
        return 1.0 - 0.5 * (self.p0_given_1 + self.p1_given_0)

    def confusion_matrix(self) -> np.ndarray:
        """Column-stochastic matrix ``M[observed, actual]``."""
        return np.array(
            [
                [1.0 - self.p1_given_0, self.p0_given_1],
                [self.p1_given_0, 1.0 - self.p0_given_1],
            ]
        )

    def flip(self, bit: int, rng: np.random.Generator) -> int:
        """Sample the observed value for an actual *bit*."""
        if bit:
            return 0 if rng.random() < self.p0_given_1 else 1
        return 1 if rng.random() < self.p1_given_0 else 0


def _check_probability(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise SimulationError(f"probability {value} outside [0, 1]")
