"""Quantum channels as superoperators, and readout confusion.

These are the noise primitives the simulated device composes per gate:
depolarizing (incoherent scrambling), T1/T2 thermal relaxation, coherent
error (a unitary map — the *state-dependent* component central to the
paper's argument), and classical readout bit-flip confusion. Each is
built in closed form, over a stack of maps at once: :func:`unitary_maps`,
:func:`depolarized_maps`, :func:`thermal_maps` and :func:`tensor_stack`
take ``(N, ...)`` arrays or N parameter sets and return ``(N, d^2,
d^2)`` matrices, so a device builds every map of one kind in a job or a
calibration sweep with one array call. The per-map forms
(:meth:`Superoperator.from_unitary`, :meth:`Superoperator.depolarized`,
:func:`thermal_superoperator`, :func:`tensor_maps`) are those calls on a
stack of one. The Kraus-operator constructions they replaced are the
tests' oracle (``tests/oracle.py``).

Only the matrix algebra is stacked. Every scalar a map reads — decay
rates, coherences, depolarizing weights — is Python float math per map,
and stacked elementwise products, ``np.matmul`` over stacks and
``np.trace`` along stacked axes give each map the bits the per-map
computation gives (``tests/test_noise_batch.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError

__all__ = [
    "Superoperator",
    "unitary_maps",
    "depolarized_maps",
    "thermal_maps",
    "thermal_superoperator",
    "tensor_maps",
    "tensor_stack",
    "embedded_matrix",
    "ReadoutError",
]


@dataclass(frozen=True)
class Superoperator:
    """A channel as a dense linear map on vectorized density matrices.

    ``rho' = K rho K^dag`` summed over Kraus operators is linear in
    ``rho``; flattening ``rho`` row-major turns the channel into one
    ``d^2 x d^2`` matrix ``S = sum_i K_i (x) conj(K_i)``. Applying ``S``
    costs a single tensor contraction regardless of how many Kraus
    operators the channel has — this is the representation the device's
    channel cache stores for its fused per-gate channels. Sequential
    channels compose by matrix product, so a gate's ideal unitary and
    its whole noise tail collapse into one operator.

    Attributes:
        matrix: The ``4^k x 4^k`` superoperator for a *k*-qubit map.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``d`` (the matrix is ``d^2 x d^2``)."""
        return int(round(math.sqrt(self.matrix.shape[0])))

    @property
    def num_qubits(self) -> int:
        return int(math.log2(self.dim))

    @classmethod
    def from_unitary(cls, unitary: np.ndarray) -> "Superoperator":
        return cls(unitary_maps(np.asarray(unitary, dtype=complex)))

    def then(self, later: "Superoperator") -> "Superoperator":
        """The map applying this superoperator first, then *later*."""
        if later.matrix.shape != self.matrix.shape:
            raise SimulationError(
                "cannot compose superoperators of different dimensions"
            )
        return Superoperator(later.matrix @ self.matrix)

    def depolarized(self, probability: float) -> "Superoperator":
        """This trace-preserving map ``S``, then depolarizing noise *p*.

        Depolarizing is ``(1 - q) rho + q Tr(rho) I/d`` with
        ``q = d^2 p / (d^2 - 1)``, and ``S`` preserves the trace, so the
        composition is ``(1 - q) S + q |vec(I/d)><vec(I)|``.
        """
        return Superoperator(
            depolarized_maps(self.matrix[None], [probability])[0]
        )


def unitary_maps(unitaries: np.ndarray) -> np.ndarray:
    """``U (x) conj(U)`` of each unitary in a stack (the last two axes).

    ``np.kron(U, conj(U))`` as one broadcast product: the same values.
    """
    dim = unitaries.shape[-1]
    maps = (
        unitaries[..., :, None, :, None]
        * unitaries.conj()[..., None, :, None, :]
    )
    return maps.reshape(unitaries.shape[:-2] + (dim * dim, dim * dim))


def depolarized_maps(
    maps: np.ndarray, probabilities: Sequence[float]
) -> np.ndarray:
    """Each trace-preserving map ``maps[i]`` followed by depolarizing
    noise ``probabilities[i]`` (see :meth:`Superoperator.depolarized`)."""
    dim = int(round(math.sqrt(maps.shape[-1])))
    whites = []
    for probability in probabilities:
        _check_probability(probability)
        whites.append(dim * dim * probability / (dim * dim - 1))
    white = np.array(whites)[:, None, None]
    identity = np.eye(dim).ravel()
    return (1.0 - white) * maps + white * np.outer(identity / dim, identity)


def tensor_maps(maps: Sequence[Superoperator]) -> Superoperator:
    """The register superoperator of single-qubit maps, ``maps[q]`` on q.

    Rows index ``(ket_out, bra_out)`` and columns ``(ket_in, bra_in)``,
    each half big-endian over the qubits: each map's four axes are placed
    at their register positions, and one broadcast product tensors them.
    """
    return Superoperator(
        tensor_stack([superop.matrix for superop in maps])
    )


def tensor_stack(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`tensor_maps` of single-qubit matrices, or of stacks of
    them: ``matrices[q]`` is qubit q's ``(..., 4, 4)`` array, and the
    leading axes broadcast."""
    count = len(matrices)
    total = 1.0
    for qubit, matrix in enumerate(matrices):
        shape = [1] * (4 * count)
        shape[qubit::count] = [2] * 4
        total = total * matrix.reshape(matrix.shape[:-2] + tuple(shape))
    dim = 2**count
    return total.reshape(total.shape[: -4 * count] + (dim * dim, dim * dim))


def embedded_matrix(
    matrix: np.ndarray, position: int, num_qubits: int
) -> np.ndarray:
    """A single-qubit superoperator *matrix* embedded at *position* of a
    *num_qubits* register (identity maps on the other qubits)."""
    matrices = [_IDENTITY] * num_qubits
    matrices[position] = matrix
    return tensor_stack(matrices)


_IDENTITY = np.eye(4, dtype=complex)


def thermal_superoperator(
    duration: float, t1: float, t2: float
) -> Superoperator:
    """Combined T1/T2 decay over *duration*, in closed form.

    Amplitude damping with ``gamma = 1 - exp(-t/T1)`` then pure
    dephasing ``lambda`` chosen so the total off-diagonal decay matches
    ``exp(-t/T2)`` (requires the physical constraint ``T2 <= 2 T1``):
    populations relax toward ``|0>`` by ``gamma`` and coherences shrink
    by ``c = sqrt(1 - gamma) sqrt(1 - lambda)``.
    """
    return Superoperator(thermal_maps([(duration, t1, t2)])[0])


#: Flat positions of ``1, gamma, c, c, 1 - gamma`` in a thermal map.
_THERMAL_SLOTS = [0, 3, 5, 10, 15]


def thermal_maps(
    relaxations: Sequence[Tuple[float, float, float]]
) -> np.ndarray:
    """:func:`thermal_superoperator` of each ``(duration, T1, T2)``, as
    one ``(N, 4, 4)`` stack: the map
    ``[[1,0,0,gamma],[0,c,0,0],[0,0,c,0],[0,0,0,1-gamma]]``."""
    entries = []
    for duration, t1, t2 in relaxations:
        gamma, lam = _thermal_rates(duration, t1, t2)
        coherence = math.sqrt(1.0 - gamma) * math.sqrt(1.0 - lam)
        entries.append((1.0, gamma, coherence, coherence, 1.0 - gamma))
    maps = np.zeros((len(entries), 16), dtype=complex)
    maps[:, _THERMAL_SLOTS] = entries
    return maps.reshape(len(entries), 4, 4)


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


def _check_probability(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise SimulationError(f"probability {value} outside [0, 1]")
