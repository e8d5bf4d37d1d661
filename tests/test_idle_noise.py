"""Tests for the idle-decoherence extension of the device executor."""

import math

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.gates import Gate
from repro.device import NOISELESS_PROFILE, NoiseProfile, build_device
from repro.device.topology import linear_topology


def _idle_heavy_circuit(width=3):
    """Qubit 0 excited then waiting while qubit 1..2 are busy."""
    qc = QuantumCircuit(width, name="idle_heavy")
    qc.rx(math.pi, 0)
    # A long ladder of work on the other qubits while qubit 0 idles.
    for _ in range(30):
        qc.rx(math.pi, 1)
        qc.rx(math.pi, 1)
        qc.rx(math.pi, 2)
        qc.rx(math.pi, 2)
    qc.measure_all()
    return qc


def _profile_with_short_t1():
    return NoiseProfile(
        **{
            **NOISELESS_PROFILE.__dict__,
            "t1_us_range": (2.0, 2.0),
            "t2_over_t1_range": (1.0, 1.0),
        }
    )


class TestIdleMarkers:
    def test_markers_inserted_per_moment(self):
        device = build_device(
            linear_topology(3), seed=0, profile=NOISELESS_PROFILE,
            idle_noise=True,
        )
        qc = QuantumCircuit(3).rx(math.pi, 0).rx(math.pi, 1).measure_all()
        instructions = device.prepare(qc).instructions
        idles = [i for i in instructions if i[0] == "idle"]
        # Moment 0 (the RX pulses and qubit 2's measurement) is busy on
        # every wire; qubit 2 then idles through moment 1's 1800 ns
        # measurement of qubits 0 and 1.
        assert idles == [("idle", (2,), (1800.0,))]
        assert all(params[0] > 0 for _, _, params in idles)

    def test_idle_gate_is_identity(self):
        gate = Gate("idle", (0,), (120.0,))
        assert np.allclose(gate.matrix(), np.eye(2))

    def test_disabled_by_default(self):
        device = build_device(
            linear_topology(3), seed=0, profile=NOISELESS_PROFILE
        )
        assert device.idle_noise is False


class TestIdleDecay:
    def test_idle_qubit_decays(self):
        profile = _profile_with_short_t1()
        with_idle = build_device(
            linear_topology(3), seed=0, profile=profile, idle_noise=True
        )
        without_idle = build_device(
            linear_topology(3), seed=0, profile=profile, idle_noise=False
        )
        qc = _idle_heavy_circuit()
        dist_with = with_idle.noisy_distribution(qc)
        dist_without = without_idle.noisy_distribution(qc)
        # Without idle noise (and an otherwise noiseless profile except
        # gate-time relaxation) qubit 0 stays mostly excited; with idle
        # noise it decays measurably more while the others work.
        p1_with = sum(p for k, p in dist_with.items() if k[0] == "1")
        p1_without = sum(p for k, p in dist_without.items() if k[0] == "1")
        assert p1_with < p1_without - 0.05

    def test_busy_qubits_unaffected_by_flag(self):
        # A circuit with no idle time is identical under both flags.
        profile = _profile_with_short_t1()
        with_idle = build_device(
            linear_topology(2), seed=0, profile=profile, idle_noise=True
        )
        without_idle = build_device(
            linear_topology(2), seed=0, profile=profile, idle_noise=False
        )
        qc = QuantumCircuit(1).rx(math.pi, 0).measure(0)
        dist_a = with_idle.noisy_distribution(qc)
        dist_b = without_idle.noisy_distribution(qc)
        for key in set(dist_a) | set(dist_b):
            assert dist_a.get(key, 0.0) == pytest.approx(
                dist_b.get(key, 0.0), abs=1e-12
            )

    def test_run_path_supports_idle(self):
        device = build_device(
            linear_topology(3), seed=1, profile=_profile_with_short_t1(),
            idle_noise=True,
        )
        counts = device.run(_idle_heavy_circuit(), 200, seed=0)
        assert sum(counts.values()) == 200
