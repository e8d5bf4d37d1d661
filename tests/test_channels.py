"""Tests for the oracle's Kraus channels and for readout errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim.channels import ReadoutError
from tests.oracle import (
    KrausChannel,
    amplitude_damping_channel,
    compose_channels,
    depolarizing_channel,
    identity_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
    unitary_channel,
)

PROBS = st.floats(0.0, 1.0, allow_nan=False)


class TestTracePreservation:
    @given(p=PROBS)
    @settings(max_examples=25, deadline=None)
    def test_depolarizing_tp(self, p):
        assert depolarizing_channel(p).is_trace_preserving()

    @given(p=PROBS)
    @settings(max_examples=25, deadline=None)
    def test_two_qubit_depolarizing_tp(self, p):
        assert two_qubit_depolarizing_channel(p).is_trace_preserving()

    @given(gamma=PROBS)
    @settings(max_examples=25, deadline=None)
    def test_amplitude_damping_tp(self, gamma):
        assert amplitude_damping_channel(gamma).is_trace_preserving()

    @given(lam=PROBS)
    @settings(max_examples=25, deadline=None)
    def test_phase_damping_tp(self, lam):
        assert phase_damping_channel(lam).is_trace_preserving()

    @given(
        duration=st.floats(0.0, 500.0),
        t1=st.floats(1.0, 100.0),
        ratio=st.floats(0.1, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_thermal_relaxation_tp(self, duration, t1, ratio):
        channel = thermal_relaxation_channel(duration, t1, ratio * t1)
        assert channel.is_trace_preserving(atol=1e-7)


class TestChannelAction:
    def test_identity_channel_noop(self):
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        assert np.allclose(identity_channel().apply_to(rho), rho)

    def test_full_depolarizing_mixes(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        out = depolarizing_channel(1.0).apply_to(rho)
        # p=1 leaves 1/3 weight on each Pauli image of |0><0|:
        # X|0><0|X = |1><1|, Y|0><0|Y = |1><1|, Z|0><0|Z = |0><0|.
        assert out[0, 0] == pytest.approx(1 / 3)
        assert out[1, 1] == pytest.approx(2 / 3)

    def test_amplitude_damping_decays_excited(self):
        rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        out = amplitude_damping_channel(0.25).apply_to(rho)
        assert out[0, 0] == pytest.approx(0.25)
        assert out[1, 1] == pytest.approx(0.75)

    def test_phase_damping_kills_coherence(self):
        rho = 0.5 * np.ones((2, 2), dtype=complex)
        out = phase_damping_channel(1.0).apply_to(rho)
        assert abs(out[0, 1]) == pytest.approx(0.0)
        assert out[0, 0] == pytest.approx(0.5)

    def test_thermal_relaxation_t2_coherence_decay(self):
        duration, t1, t2 = 100.0, 300.0, 150.0
        rho = 0.5 * np.ones((2, 2), dtype=complex)
        out = thermal_relaxation_channel(duration, t1, t2).apply_to(rho)
        assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-duration / t2), rel=1e-6)

    def test_thermal_relaxation_t1_population_decay(self):
        duration, t1, t2 = 50.0, 200.0, 100.0
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = thermal_relaxation_channel(duration, t1, t2).apply_to(rho)
        assert out[1, 1] == pytest.approx(math.exp(-duration / t1), rel=1e-6)

    def test_unitary_channel(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = unitary_channel(x).apply_to(rho)
        assert out[1, 1] == pytest.approx(1.0)

    def test_compose_applies_in_order(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        first = unitary_channel(x)
        second = amplitude_damping_channel(1.0)
        composed = compose_channels(first, second)
        rho = np.diag([1.0, 0.0]).astype(complex)
        # X then full damping: |0> -> |1> -> |0>.
        out = composed.apply_to(rho)
        assert out[0, 0] == pytest.approx(1.0)


class TestValidation:
    def test_empty_channel_rejected(self):
        with pytest.raises(SimulationError):
            KrausChannel(())

    def test_probability_range_checked(self):
        with pytest.raises(SimulationError):
            depolarizing_channel(1.5)
        with pytest.raises(SimulationError):
            amplitude_damping_channel(-0.1)

    def test_unphysical_t2_rejected(self):
        with pytest.raises(SimulationError, match="T2"):
            thermal_relaxation_channel(10.0, 10.0, 30.0)

    def test_compose_dim_mismatch(self):
        with pytest.raises(SimulationError):
            compose_channels(identity_channel(1), identity_channel(2))

    def test_mismatched_kraus_shapes_rejected(self):
        with pytest.raises(SimulationError):
            KrausChannel((np.eye(2), np.eye(4)))


class TestReadoutError:
    def test_assignment_fidelity(self):
        error = ReadoutError(p0_given_1=0.08, p1_given_0=0.02)
        assert error.assignment_fidelity == pytest.approx(0.95)

    def test_confusion_matrix_columns_stochastic(self):
        error = ReadoutError(0.1, 0.03)
        confusion = error.confusion_matrix()
        assert np.allclose(confusion.sum(axis=0), 1.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(SimulationError):
            ReadoutError(1.2, 0.0)
