"""Tests for repro.linalg."""

import numpy as np
import pytest

from repro.circuit.gates import gate_matrix, rx_matrix
from repro.linalg import (
    is_unitary,
    kron_n,
    operator_norm,
    operator_norm_distance,
    phase_aligned,
    phase_invariant_distance,
    unitaries_equal_up_to_phase,
)
from tests.oracle import channel_average_fidelity


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4))

    def test_hadamard(self):
        assert is_unitary(gate_matrix("h"))

    def test_rejects_non_square(self):
        assert not is_unitary(np.ones((2, 3)))

    def test_rejects_non_unitary(self):
        assert not is_unitary(np.array([[1, 0], [0, 2]]))

    def test_rejects_vector(self):
        assert not is_unitary(np.ones(4))


class TestOperatorNorm:
    def test_identity_norm_one(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_scales_linearly(self):
        assert operator_norm(2.5 * np.eye(2)) == pytest.approx(2.5)

    def test_unitary_has_norm_one(self):
        assert operator_norm(gate_matrix("s")) == pytest.approx(1.0)

    def test_distance_of_orthogonal_paulis(self):
        # X - Z = [[-1, 1], [1, 1]] has singular values sqrt(2), sqrt(2).
        d = operator_norm_distance(gate_matrix("x"), gate_matrix("z"))
        assert d == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_distance_zero_for_equal(self):
        assert operator_norm_distance(gate_matrix("h"), gate_matrix("h")) == 0.0


class TestPhaseAlignment:
    def test_aligns_global_phase(self):
        u = gate_matrix("z")
        v = -u
        aligned = phase_aligned(u, v)
        assert np.allclose(aligned, u)

    def test_equal_up_to_phase_accepts_phase(self):
        u = gate_matrix("t")
        assert unitaries_equal_up_to_phase(u, np.exp(1j * 0.7) * u)

    def test_equal_up_to_phase_rejects_different(self):
        assert not unitaries_equal_up_to_phase(gate_matrix("x"), gate_matrix("z"))

    def test_shape_mismatch_rejected(self):
        assert not unitaries_equal_up_to_phase(np.eye(2), np.eye(4))

    def test_phase_invariant_distance_ignores_phase(self):
        u = rx_matrix(0.3)
        assert phase_invariant_distance(u, np.exp(1j * 1.1) * u) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_phase_invariant_distance_positive_for_distinct(self):
        assert phase_invariant_distance(gate_matrix("x"), gate_matrix("z")) > 0.5


class TestFidelities:
    def test_channel_fidelity_identity_kraus(self):
        fid = channel_average_fidelity(np.eye(2), [np.eye(2)])
        assert fid == pytest.approx(1.0)

    def test_channel_fidelity_depolarizing(self):
        # Depolarizing with prob p on the identity target:
        # F_avg = 1 - 2p/3 for the standard single-qubit channel.
        p = 0.12
        kraus = [
            np.sqrt(1 - p) * np.eye(2),
            np.sqrt(p / 3) * gate_matrix("x"),
            np.sqrt(p / 3) * gate_matrix("y"),
            np.sqrt(p / 3) * gate_matrix("z"),
        ]
        fid = channel_average_fidelity(np.eye(2), kraus)
        assert fid == pytest.approx(1 - 2 * p / 3, rel=1e-9)


class TestKronAndProjection:
    def test_kron_n_ordering(self):
        # X on the most significant qubit of two.
        full = kron_n(gate_matrix("x"), np.eye(2))
        state = np.zeros(4)
        state[0b00] = 1.0
        out = full @ state
        assert out[0b10] == pytest.approx(1.0)

    def test_kron_n_three_factors(self):
        full = kron_n(np.eye(2), np.eye(2), gate_matrix("x"))
        assert full.shape == (8, 8)
        state = np.zeros(8)
        state[0] = 1.0
        assert (full @ state)[0b001] == pytest.approx(1.0)
