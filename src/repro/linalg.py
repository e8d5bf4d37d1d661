"""Linear-algebra utilities shared across the library.

These helpers implement the handful of matrix-analysis quantities the paper
relies on:

* the operator norm distance of Eq. (1), used to pick the closest Clifford
  replacement for a non-Clifford gate when building CopyCats;
* global-phase-invariant unitary equivalence, used throughout the tests to
  verify that gate decompositions (e.g. CNOT via two XY pulses) are exact;
* big-endian Kronecker products of per-qubit operators.

All functions operate on plain ``numpy`` arrays; no objects from the rest
of the library leak in, so this module sits at the bottom of the
dependency graph.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_unitary",
    "operator_norm",
    "operator_norm_distance",
    "phase_aligned",
    "unitaries_equal_up_to_phase",
    "phase_invariant_distance",
    "kron_n",
]

_ATOL = 1e-9


def is_unitary(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Return ``True`` if *matrix* is unitary within tolerance *atol*."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return np.allclose(matrix.conj().T @ matrix, identity, atol=atol)


def operator_norm(matrix: np.ndarray) -> float:
    """Spectral norm ``||M||_inf`` — the largest singular value of *M*.

    This is the norm of paper Eq. (1): the maximum amplification of any
    state vector, ``max_{|psi> != 0} ||M|psi>||_2 / |||psi>||_2``.
    """
    return float(np.linalg.norm(np.asarray(matrix), ord=2))


def operator_norm_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance ``||U - V||_inf`` between two operators (paper Eq. 1)."""
    return operator_norm(np.asarray(u) - np.asarray(v))


def phase_aligned(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return ``e^{i phi} V`` with the global phase chosen to best match *U*.

    The optimal phase maximizes ``Re(e^{-i phi} Tr(U^dag V))`` and therefore
    minimizes both the Frobenius and (for nearby unitaries) the operator
    norm distance to *U*. If the trace overlap vanishes the input *V* is
    returned unchanged, since every phase is then equally (un)aligned.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    overlap = np.trace(u.conj().T @ v)
    if abs(overlap) < _ATOL:
        return v
    return v * (overlap.conjugate() / abs(overlap))


def unitaries_equal_up_to_phase(
    u: np.ndarray, v: np.ndarray, atol: float = 1e-7
) -> bool:
    """Return ``True`` if ``U = e^{i phi} V`` for some global phase *phi*."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        return False
    return bool(np.allclose(u, phase_aligned(u, v), atol=atol))


def phase_invariant_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Operator-norm distance between *U* and *V*, minimized over phase.

    The paper's Eq. (1) is phase-sensitive; a literal reading would call
    ``Z`` and ``-Z`` maximally distant. When ranking Clifford replacements
    we quotient out the global phase (which has no physical effect) by
    aligning *V* to *U* first. See :func:`phase_aligned`.
    """
    return operator_norm_distance(u, phase_aligned(u, v))


def kron_n(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product of the given matrices, left factor most significant.

    ``kron_n(A, B, C)`` places ``A`` on the most-significant qubit. The
    whole library uses big-endian ordering: qubit 0 is the leftmost bit of
    a measured bitstring and the most-significant index of a state vector.
    """
    result = np.asarray(matrices[0])
    for matrix in matrices[1:]:
        result = np.kron(result, np.asarray(matrix))
    return result
