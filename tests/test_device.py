"""Tests for the simulated Aspen device executor."""

import math

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.gates import Gate
from repro.device import (
    NOISELESS_PROFILE,
    RigettiAspenDevice,
    aspen11,
    aspen_m1,
    build_device,
    small_test_device,
)
from repro.device.drift import DriftingValue
from repro.device.native_gates import cnot_decomposition, hadamard_native
from repro.device.noise_parameters import coherent_error_unitary
from repro.device.topology import linear_topology
from repro.exceptions import DeviceError
from repro.linalg import channel_average_fidelity
from repro.sim.channels import (
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)


def _bell_native(qubit_a, qubit_b, native="cz"):
    qc = QuantumCircuit(max(qubit_a, qubit_b) + 1, name="bell")
    for gate in hadamard_native(qubit_a):
        qc.append(gate)
    for gate in cnot_decomposition(native, qubit_a, qubit_b):
        qc.append(gate)
    qc.measure(qubit_a)
    qc.measure(qubit_b)
    return qc


@pytest.fixture(scope="module")
def device():
    return small_test_device(5, seed=2)


class TestPresets:
    def test_aspen11_shape(self):
        dev = aspen11()
        assert dev.topology.num_qubits == 38
        assert dev.name == "aspen-11"

    def test_aspen_m1_matches_paper_link_count(self):
        dev = aspen_m1()
        assert dev.topology.num_qubits == 80
        assert dev.topology.num_links == 103

    def test_deterministic_construction(self):
        a = small_test_device(4, seed=9)
        b = small_test_device(4, seed=9)
        link = a.topology.links[0]
        for gate in a.supported_gates(*link):
            assert a.true_pulse_fidelity(link, gate) == pytest.approx(
                b.true_pulse_fidelity(link, gate)
            )

    def test_some_links_missing_gates_on_aspen(self):
        dev = aspen_m1(seed=5)
        availability = [
            len(dev.supported_gates(*link)) for link in dev.topology.links
        ]
        assert min(availability) >= 1
        assert any(count < 3 for count in availability)


class TestValidation:
    def test_rejects_unmeasured_circuit(self, device):
        qc = QuantumCircuit(2).rz(0.3, 0)
        with pytest.raises(DeviceError, match="no measurements"):
            device.run(qc, 10)

    def test_rejects_non_native_gate(self, device):
        qc = QuantumCircuit(2).h(0).measure(0)
        with pytest.raises(DeviceError, match="not native"):
            device.run(qc, 10)

    def test_rejects_off_link_two_qubit_gate(self, device):
        qc = QuantumCircuit(5).cz(0, 4).measure(0)
        with pytest.raises(DeviceError, match="not on a device link"):
            device.run(qc, 10)

    def test_rejects_unknown_qubit(self, device):
        qc = QuantumCircuit(50).rz(0.1, 45).measure(45)
        with pytest.raises(DeviceError, match="inactive"):
            device.run(qc, 10)

    def test_rejects_zero_shots(self, device):
        qc = _bell_native(0, 1)
        with pytest.raises(DeviceError):
            device.run(qc, 0)

    def test_rejects_unsupported_gate_on_link(self):
        full = small_test_device(3, seed=1)
        # The same chip without cphase on link (0, 1): device parameter
        # maps are read-only, so build it without those params.
        dev = RigettiAspenDevice(
            full.topology,
            full.qubit_params,
            {
                key: params
                for key, params in full.gate_params.items()
                if key != ((0, 1), "cphase")
            },
            seed=2,  # small_test_device(seed=1) seeds its device with 2
        )
        qc = QuantumCircuit(2)
        qc.cphase(math.pi / 2, 0, 1)
        qc.measure(0)
        with pytest.raises(DeviceError, match="does not support"):
            dev.run(qc, 10)


class TestExecution:
    def test_counts_total_shots(self, device):
        counts = device.run(_bell_native(0, 1), 500, seed=0)
        assert sum(counts.values()) == 500

    def test_noiseless_device_is_exact(self):
        dev = build_device(linear_topology(3), seed=0, profile=NOISELESS_PROFILE)
        counts = dev.run(_bell_native(0, 1), 4000, seed=1)
        assert set(counts) == {"00", "11"}
        assert abs(counts["00"] - 2000) < 150

    def test_noisy_device_leaks_probability(self, device):
        counts = device.run(_bell_native(0, 1), 4000, seed=2)
        wrong = sum(v for k, v in counts.items() if k in ("01", "10"))
        assert wrong > 0

    def test_all_native_gates_executable(self, device):
        for native in ("xy", "cz", "cphase"):
            counts = device.run(_bell_native(1, 2, native), 200, seed=3)
            assert sum(counts.values()) == 200

    def test_seeded_runs_reproducible(self):
        dev_a = small_test_device(4, seed=6)
        dev_b = small_test_device(4, seed=6)
        counts_a = dev_a.run(_bell_native(0, 1), 300, seed=9)
        counts_b = dev_b.run(_bell_native(0, 1), 300, seed=9)
        assert counts_a == counts_b

    def test_bit_order_matches_measurement_order(self, device):
        # Measure (1, 0) with qubit 0 excited -> key "01".
        qc = QuantumCircuit(2).rx(math.pi, 0).measure(1).measure(0)
        counts = device.run(qc, 300, seed=4)
        assert max(counts, key=counts.get) == "01"


class TestClockAndDrift:
    def test_clock_advances_with_execution(self):
        dev = small_test_device(3, seed=4)
        start = dev.clock_us
        dev.run(_bell_native(0, 1), 100, seed=0)
        assert dev.clock_us > start
        assert len(dev.execution_log) == 1

    def test_parameters_drift_over_time(self):
        dev = small_test_device(3, seed=4)
        link = (0, 1)
        before = dev.true_pulse_fidelity(link, "cz")
        dev.advance_time(48 * 3_600e6)  # two days
        after = dev.true_pulse_fidelity(link, "cz")
        assert before != pytest.approx(after, abs=1e-6)

    def test_noiseless_profile_does_not_drift(self):
        dev = build_device(linear_topology(3), seed=0, profile=NOISELESS_PROFILE)
        before = dev.true_pulse_fidelity((0, 1), "cz")
        dev.advance_time(48 * 3_600e6)
        assert dev.true_pulse_fidelity((0, 1), "cz") == pytest.approx(before)

    def test_negative_time_rejected(self):
        dev = small_test_device(3, seed=4)
        with pytest.raises(DeviceError):
            dev.advance_time(-1.0)

    def test_circuit_duration_counts_critical_path(self, device):
        qc = _bell_native(0, 1)
        duration = device.circuit_duration_us(qc)
        assert duration > 0


class TestTrueFidelity:
    def test_noiseless_fidelity_is_one(self):
        dev = build_device(linear_topology(3), seed=0, profile=NOISELESS_PROFILE)
        for gate in ("xy", "cz", "cphase"):
            assert dev.true_pulse_fidelity((0, 1), gate) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_noisy_fidelity_below_one(self, device):
        for gate in device.supported_gates(0, 1):
            fid = device.true_pulse_fidelity((0, 1), gate)
            assert 0.5 < fid < 1.0

    def test_unknown_link_gate_rejected(self, device):
        with pytest.raises(DeviceError):
            device.true_pulse_fidelity((0, 4), "cz")

    def test_rx_fidelity(self, device):
        fid = device.true_rx_fidelity(0)
        assert 0.9 < fid <= 1.0


_PULSE_GATES = {
    "cz": Gate("cz", (0, 1)),
    "xy": Gate("xy", (0, 1), (math.pi,)),
    "cphase": Gate("cphase", (0, 1), (math.pi / 2,)),
}


def _kraus_reference(dev, link, gate_name):
    """Average pulse fidelity from the explicitly composed Kraus list:
    ideal pulse, coherent error, 2q depolarizing, then each qubit's
    thermal relaxation, traced term by term."""
    params = dev.gate_params[(link, gate_name)]
    ideal = _PULSE_GATES[gate_name].matrix()
    error = coherent_error_unitary(
        gate_name, params.over_rotation.current, params.zz_error.current
    )
    kraus = [error @ ideal]
    depol = params.depolarizing.current
    if depol > 0:
        channel = two_qubit_depolarizing_channel(depol)
        kraus = [k @ base for base in kraus for k in channel.operators]
    identity = np.eye(2)
    for position, qubit in enumerate(link):
        qparams = dev.qubit_params[qubit]
        thermal = thermal_relaxation_channel(
            params.duration_ns / 1000.0,
            qparams.t1_us.current,
            min(qparams.t2_us.current, 2 * qparams.t1_us.current),
        )
        embedded = [
            np.kron(op, identity) if position == 0 else np.kron(identity, op)
            for op in thermal.operators
        ]
        kraus = [k @ base for base in kraus for k in embedded]
    return channel_average_fidelity(ideal, kraus)


def _set_no_depolarizing(dev, link, gate_name):
    dev.gate_params[(link, gate_name)].depolarizing = DriftingValue.fixed(0.0)


def _set_t2_at_limit(dev, link, gate_name):
    for qubit in link:
        params = dev.qubit_params[qubit]
        params.t2_us = DriftingValue.fixed(2 * params.t1_us.current)


def _set_short_t1(dev, link, gate_name):
    for qubit in link:
        dev.qubit_params[qubit].t1_us = DriftingValue.fixed(0.01)
        dev.qubit_params[qubit].t2_us = DriftingValue.fixed(0.015)


def _set_no_zz(dev, link, gate_name):
    dev.gate_params[(link, gate_name)].zz_error = DriftingValue.fixed(0.0)


def _set_all(dev, link, gate_name):
    for edit in (_set_no_depolarizing, _set_t2_at_limit, _set_no_zz):
        edit(dev, link, gate_name)


class TestPulseFidelityClosedForm:
    """``true_pulse_fidelity`` is a closed form of the Kraus sum."""

    @pytest.mark.parametrize("hours", [0.0, 4.0, 30.0])
    def test_matches_kraus_sum_on_every_aspen11_pulse(self, hours):
        aspen = aspen11(seed=11)
        aspen.advance_time(hours * 3_600e6)
        assert len(aspen.gate_params) == 128
        for link, gate_name in aspen.gate_params:
            assert aspen.true_pulse_fidelity(
                link, gate_name
            ) == pytest.approx(
                _kraus_reference(aspen, link, gate_name), abs=1e-12
            )

    @pytest.mark.parametrize("gate_name", sorted(_PULSE_GATES))
    @pytest.mark.parametrize(
        "edit",
        [
            _set_no_depolarizing,
            _set_t2_at_limit,
            _set_short_t1,
            _set_no_zz,
            _set_all,
        ],
    )
    def test_matches_kraus_sum_at_edge_parameters(self, edit, gate_name):
        dev = small_test_device(3, seed=4)
        link = (0, 1)
        assert gate_name in dev.supported_gates(*link)
        edit(dev, link, gate_name)
        fidelity = dev.true_pulse_fidelity(link, gate_name)
        assert fidelity == pytest.approx(
            _kraus_reference(dev, link, gate_name), abs=1e-12
        )
        assert 0.25 <= fidelity <= 1.0
