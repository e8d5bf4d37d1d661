"""Tests for the density matrix and the oracle's simulator on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit, random_circuit
from repro.exceptions import SimulationError
from repro.sim.channels import ReadoutError
from repro.sim.density_matrix import DensityMatrix
from repro.sim.statevector import ideal_distribution
from tests.oracle import (
    DensityMatrixSimulator,
    ReferenceDensityMatrix,
    amplitude_damping_channel,
    depolarizing_channel,
    two_qubit_depolarizing_channel,
)


class TestPureEvolution:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_noiseless_matches_statevector(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(3, 12, rng)
        dm_dist = DensityMatrixSimulator().distribution(qc)
        sv_dist = ideal_distribution(qc)
        keys = set(dm_dist) | set(sv_dist)
        for key in keys:
            assert dm_dist.get(key, 0.0) == pytest.approx(
                sv_dist.get(key, 0.0), abs=1e-9
            )

    def test_trace_preserved(self):
        qc = QuantumCircuit(2).h(0).cnot(0, 1)
        state = DensityMatrixSimulator().run(qc)
        assert state.trace() == pytest.approx(1.0)

    def test_purity_of_pure_state(self):
        qc = QuantumCircuit(2).h(0).cnot(0, 1)
        assert DensityMatrixSimulator().run(qc).purity() == pytest.approx(1.0)

    def test_distant_qubits_gate(self):
        qc = QuantumCircuit(3).x(0).cnot(0, 2)
        dist = DensityMatrixSimulator().distribution(qc)
        assert dist["101"] == pytest.approx(1.0)


class TestNoisyEvolution:
    def test_depolarizing_reduces_purity(self):
        def noise(gate):
            return [(depolarizing_channel(0.2), gate.qubits)]

        qc = QuantumCircuit(1).x(0)
        state = DensityMatrixSimulator(noise).run(qc)
        assert state.purity() < 1.0
        assert state.trace() == pytest.approx(1.0)

    def test_two_qubit_noise_on_two_qubit_gates_only(self):
        def noise(gate):
            if gate.is_two_qubit:
                return [(two_qubit_depolarizing_channel(0.3), gate.qubits)]
            return []

        qc = QuantumCircuit(2).x(0).cnot(0, 1)
        dist = DensityMatrixSimulator(noise).distribution(qc)
        # Ideal output is 11; depolarizing spreads mass to other outcomes.
        assert dist["11"] > 0.5
        assert sum(dist.values()) == pytest.approx(1.0)
        assert len(dist) > 1

    def test_amplitude_damping_biases_to_zero(self):
        def noise(gate):
            return [(amplitude_damping_channel(0.5), gate.qubits)]

        qc = QuantumCircuit(1).x(0)
        dist = DensityMatrixSimulator(noise).distribution(qc)
        assert dist["0"] == pytest.approx(0.5)
        assert dist["1"] == pytest.approx(0.5)

    def test_channel_arity_mismatch_rejected(self):
        state = ReferenceDensityMatrix(2)
        with pytest.raises(SimulationError):
            state.apply_channel(depolarizing_channel(0.1), (0, 1))


class TestReadout:
    def test_readout_confusion_applied(self):
        qc = QuantumCircuit(1).x(0).measure(0)
        errors = [ReadoutError(p0_given_1=0.2, p1_given_0=0.0)]
        dist = DensityMatrixSimulator().distribution(qc, readout_errors=errors)
        assert dist["0"] == pytest.approx(0.2)
        assert dist["1"] == pytest.approx(0.8)

    def test_readout_only_on_listed_qubits(self):
        qc = QuantumCircuit(2).x(0).measure_all()
        errors = [None, ReadoutError(0.0, 0.5)]
        dist = DensityMatrixSimulator().distribution(qc, readout_errors=errors)
        assert dist["10"] == pytest.approx(0.5)
        assert dist["11"] == pytest.approx(0.5)


class TestLimits:
    def test_width_limit(self):
        with pytest.raises(SimulationError):
            DensityMatrix(11)

    def test_non_unitary_gate_rejected(self):
        from repro.circuit.gates import Gate

        state = ReferenceDensityMatrix(1)
        with pytest.raises(SimulationError):
            state.apply_gate(Gate("measure", (0,)))
