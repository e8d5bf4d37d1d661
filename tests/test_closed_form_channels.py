"""Closed-form gate channels against their per-Kraus compositions.

The device builds each gate's fused superoperator, and its ground-truth
fidelities, from one closed-form noise map per pulse. The compositions
below are the ``from_kraus``/``then``/``embed`` builds those closed forms
replaced, from the Kraus channels of ``tests/oracle.py``; they are the
oracle. Every aspen-11 link-gate pair (both qubit
orders) and every qubit's ``rx``/``rz``/idle map is checked at 0, 4 and
30 h of drift, plus edge parameters on a small device.

The nightly differential job widens the sweep through
``REPRO_DIFFERENTIAL_SEEDS`` (comma-separated extra device seeds).
"""

import math

import numpy as np
import pytest

from repro.circuit.gates import Gate
from repro.device import small_test_device
from repro.device.drift import DriftingValue
from repro.device.noise_parameters import (
    coherent_error_unitary,
    single_qubit_coherent_error,
)
from repro.exceptions import SimulationError
from repro.experiments import ExperimentContext
from repro.sim.channels import Superoperator, thermal_superoperator
from tests.oracle import (
    channel_average_fidelity,
    depolarizing_channel,
    differential_seeds,
    embed,
    from_kraus,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)

from .test_device import _PULSE_GATES, _kraus_reference

_TOL = 1e-14
_HOURS = (0.0, 4.0, 30.0)
_SINGLE_GATES = (
    Gate("rx", (0,), (math.pi / 2,)),
    Gate("rx", (0,), (-math.pi / 2,)),
    Gate("rx", (0,), (math.pi,)),
    Gate("rz", (0,), (0.7,)),
    Gate("rz", (0,), (-2.3,)),
)
_IDLE_US = (0.06, 0.2)


def _fused_single(device, gate, phys):
    """The channel a job builds for *gate* on physical qubit *phys*."""
    return device._build_channel(("fused-1q", gate.name, gate.params, phys))


def _fused_two(device, gate, phys_pair):
    """The channel a job builds for *gate* on *phys_pair*, in order."""
    return device._build_channel(
        ("fused-2q", gate.name, gate.params, tuple(phys_pair))
    )


# ----------------------------------------------------------------------
# The per-Kraus reference builds
# ----------------------------------------------------------------------
def _reference_embed(superop, position, num_qubits):
    """Tensor the per-qubit maps one ``tensordot`` at a time."""
    eye = np.eye(2, dtype=complex)
    identity_map = np.einsum("ac,bd->abcd", eye, eye)
    small = superop.matrix.reshape(2, 2, 2, 2)
    total = None
    for index in range(num_qubits):
        block = small if index == position else identity_map
        total = block if total is None else np.tensordot(
            total, block, axes=0
        )
    perm = [4 * q + part for part in range(4) for q in range(num_qubits)]
    dim = 2**num_qubits
    return Superoperator(
        np.transpose(total, perm).reshape(dim * dim, dim * dim)
    )


def _reference_unitary(unitary):
    return Superoperator(np.kron(unitary, unitary.conj()))


def _thermal_kraus(dev, phys, duration_us):
    params = dev.qubit_params[phys]
    t1 = params.t1_us.current
    return thermal_relaxation_channel(
        duration_us, t1, min(params.t2_us.current, 2 * t1)
    )


def _reference_idle(dev, phys, duration_us):
    return from_kraus(_thermal_kraus(dev, phys, duration_us))


def _reference_single(dev, gate, phys):
    superop = _reference_unitary(gate.matrix())
    if gate.name == "rz":
        return superop
    params = dev.qubit_params[phys]
    over = params.rx_over_rotation.current
    if abs(over) > 1e-12:
        superop = superop.then(
            _reference_unitary(single_qubit_coherent_error(over))
        )
    depol = params.rx_depolarizing.current
    if depol > 0:
        superop = superop.then(
            from_kraus(depolarizing_channel(depol))
        )
    return superop.then(
        _reference_idle(dev, phys, params.rx_duration_ns / 1000.0)
    )


def _reference_two(dev, gate, phys_pair):
    link = tuple(sorted(phys_pair))
    params = dev.gate_params[(link, gate.name)]
    superop = _reference_unitary(gate.matrix())
    over = params.over_rotation.current
    zz = params.zz_error.current
    if abs(over) > 1e-12 or abs(zz) > 1e-12:
        superop = superop.then(
            _reference_unitary(coherent_error_unitary(gate.name, over, zz))
        )
    depol = params.depolarizing.current
    if depol > 0:
        superop = superop.then(
            from_kraus(two_qubit_depolarizing_channel(depol))
        )
    duration_us = params.duration_ns / 1000.0
    for position, phys in enumerate(phys_pair):
        superop = superop.then(
            _reference_embed(
                _reference_idle(dev, phys, duration_us), position, 2
            )
        )
    return superop


def _kraus_rx_reference(dev, qubit):
    """Average RX(pi/2) fidelity from the explicitly composed Kraus list."""
    params = dev.qubit_params[qubit]
    ideal = Gate("rx", (0,), (math.pi / 2,)).matrix()
    error = single_qubit_coherent_error(params.rx_over_rotation.current)
    kraus = [error @ ideal]
    depol = params.rx_depolarizing.current
    if depol > 0:
        channel = depolarizing_channel(depol)
        kraus = [k @ base for base in kraus for k in channel.operators]
    thermal = _thermal_kraus(dev, qubit, params.rx_duration_ns / 1000.0)
    kraus = [k @ base for base in kraus for k in thermal.operators]
    return channel_average_fidelity(ideal, kraus)


def _max_delta(left, right):
    return float(np.max(np.abs(left.matrix - right.matrix)))


# ----------------------------------------------------------------------
# Every aspen-11 gate at 0, 4 and 30 h of drift
# ----------------------------------------------------------------------
@pytest.fixture(
    scope="module",
    params=[
        (seed, hours) for seed in differential_seeds([23]) for hours in _HOURS
    ],
    ids=lambda p: f"seed{p[0]}-{p[1]:g}h",
)
def aspen(request):
    seed, hours = request.param
    context = ExperimentContext.create(
        seed=seed, calibration_seed=3, drift_hours=hours
    )
    yield context.device
    context.close()


class TestAspen11AgainstKraus:
    def test_every_link_gate_pair_both_orders(self, aspen):
        links = {link for link, _ in aspen.gate_params}
        assert links == set(aspen.topology.links)
        for (link, gate_name) in aspen.gate_params:
            gate = _PULSE_GATES[gate_name]
            for phys_pair in (link, link[::-1]):
                assert _max_delta(
                    _fused_two(aspen, gate, phys_pair),
                    _reference_two(aspen, gate, phys_pair),
                ) <= _TOL, (link, gate_name, phys_pair)

    def test_every_qubit_single_qubit_gates(self, aspen):
        for qubit in aspen.topology.qubits:
            for gate in _SINGLE_GATES:
                fused = _fused_single(aspen, gate, qubit)
                reference = _reference_single(aspen, gate, qubit)
                if gate.name == "rz":
                    assert np.array_equal(fused.matrix, reference.matrix)
                else:
                    assert _max_delta(fused, reference) <= _TOL, (qubit, gate)

    def test_every_qubit_idle(self, aspen):
        for qubit in aspen.topology.qubits:
            for duration_us in _IDLE_US:
                assert _max_delta(
                    aspen._fused_idle(qubit, duration_us),
                    _reference_idle(aspen, qubit, duration_us),
                ) <= _TOL, (qubit, duration_us)

    def test_true_fidelities(self, aspen):
        for (link, gate_name) in aspen.gate_params:
            assert abs(
                aspen.true_pulse_fidelity(link, gate_name)
                - _kraus_reference(aspen, link, gate_name)
            ) <= _TOL, (link, gate_name)
        for qubit in aspen.topology.qubits:
            assert abs(
                aspen.true_rx_fidelity(qubit)
                - _kraus_rx_reference(aspen, qubit)
            ) <= _TOL, qubit


# ----------------------------------------------------------------------
# Edge parameters
# ----------------------------------------------------------------------
def _no_depolarizing(dev, link, gate_name):
    dev.gate_params[(link, gate_name)].depolarizing = DriftingValue.fixed(0.0)
    for qubit in link:
        dev.qubit_params[qubit].rx_depolarizing = DriftingValue.fixed(0.0)


def _no_coherent_error(dev, link, gate_name):
    params = dev.gate_params[(link, gate_name)]
    params.over_rotation = DriftingValue.fixed(0.0)
    params.zz_error = DriftingValue.fixed(0.0)
    for qubit in link:
        dev.qubit_params[qubit].rx_over_rotation = DriftingValue.fixed(0.0)


def _t2_at_limit(dev, link, gate_name):
    for qubit in link:
        params = dev.qubit_params[qubit]
        params.t2_us = DriftingValue.fixed(2 * params.t1_us.current)


def _short_t1(dev, link, gate_name):
    for qubit in link:
        dev.qubit_params[qubit].t1_us = DriftingValue.fixed(0.01)
        dev.qubit_params[qubit].t2_us = DriftingValue.fixed(0.015)


def _t1_decays_fully(dev, link, gate_name):
    """``gamma`` rounds to exactly 1: the residual-dephasing clip branch."""
    for qubit in link:
        dev.qubit_params[qubit].t1_us = DriftingValue.fixed(1e-6)
        dev.qubit_params[qubit].t2_us = DriftingValue.fixed(1e-6)


def _all_edges(dev, link, gate_name):
    for edit in (_no_depolarizing, _no_coherent_error, _t2_at_limit):
        edit(dev, link, gate_name)


_EDGES = [
    _no_depolarizing,
    _no_coherent_error,
    _t2_at_limit,
    _short_t1,
    _t1_decays_fully,
    _all_edges,
]


@pytest.mark.parametrize("gate_name", sorted(_PULSE_GATES))
@pytest.mark.parametrize("edit", _EDGES, ids=lambda edit: edit.__name__)
def test_edge_parameters_match_kraus(edit, gate_name):
    dev = small_test_device(3, seed=4)
    link = (0, 1)
    assert gate_name in dev.supported_gates(*link)
    edit(dev, link, gate_name)
    gate = _PULSE_GATES[gate_name]
    for phys_pair in (link, link[::-1]):
        assert _max_delta(
            _fused_two(dev, gate, phys_pair),
            _reference_two(dev, gate, phys_pair),
        ) <= _TOL
    assert abs(
        dev.true_pulse_fidelity(link, gate_name)
        - _kraus_reference(dev, link, gate_name)
    ) <= _TOL
    for qubit in link:
        for gate in _SINGLE_GATES:
            assert _max_delta(
                _fused_single(dev, gate, qubit),
                _reference_single(dev, gate, qubit),
            ) <= _TOL
        assert _max_delta(
            dev._fused_idle(qubit, 0.2), _reference_idle(dev, qubit, 0.2)
        ) <= _TOL
        assert abs(
            dev.true_rx_fidelity(qubit) - _kraus_rx_reference(dev, qubit)
        ) <= _TOL


def test_zero_duration_idle_compiles_to_nothing():
    dev = small_test_device(3, seed=4)
    assert dev._channel_key("idle", (0.0,), (1,)) is None
    assert _max_delta(
        thermal_superoperator(0.0, 10.0, 15.0), Superoperator(np.eye(4))
    ) == 0.0


# ----------------------------------------------------------------------
# The channel-level closed forms
# ----------------------------------------------------------------------
def _random_unitary(rng, dim):
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(matrix)
    return unitary


@pytest.mark.parametrize("seed", differential_seeds(range(5)))
def test_from_unitary_bit_identical_to_kron(seed):
    rng = np.random.default_rng(seed)
    for dim in (2, 4, 8):
        unitary = _random_unitary(rng, dim)
        assert np.array_equal(
            Superoperator.from_unitary(unitary).matrix,
            _reference_unitary(unitary).matrix,
        )


@pytest.mark.parametrize("seed", differential_seeds(range(5)))
def test_embed_bit_identical(seed):
    rng = np.random.default_rng(seed)
    maps = [
        _reference_unitary(_random_unitary(rng, 2)),
        thermal_superoperator(rng.uniform(0.0, 1.0), 20.0, 30.0),
        from_kraus(depolarizing_channel(rng.uniform())),
    ]
    for superop in maps:
        for num_qubits in (1, 2, 3):
            for position in range(num_qubits):
                assert np.array_equal(
                    embed(superop, position, num_qubits).matrix,
                    _reference_embed(superop, position, num_qubits).matrix,
                )


@pytest.mark.parametrize("seed", differential_seeds(range(5)))
def test_depolarized_matches_kraus_composition(seed):
    rng = np.random.default_rng(100 + seed)
    probability = rng.uniform()
    for dim, channel in (
        (2, depolarizing_channel(probability)),
        (4, two_qubit_depolarizing_channel(probability)),
    ):
        before = _reference_unitary(_random_unitary(rng, dim))
        assert _max_delta(
            before.depolarized(probability),
            before.then(from_kraus(channel)),
        ) <= _TOL


@pytest.mark.parametrize(
    "duration, t1, t2",
    [
        (0.0, 20.0, 30.0),
        (0.2, 20.0, 30.0),
        (0.2, 20.0, 40.0),
        (0.2, 0.01, 0.015),
        (0.2, 1e-6, 1e-6),
        (5.0, 20.0, 1.0),
    ],
)
def test_thermal_superoperator_matches_kraus(duration, t1, t2):
    assert _max_delta(
        thermal_superoperator(duration, t1, t2),
        from_kraus(thermal_relaxation_channel(duration, t1, t2)),
    ) <= _TOL


class TestStillRejected:
    @pytest.mark.parametrize("probability", [-0.1, 1.1])
    def test_depolarizing_probability(self, probability):
        with pytest.raises(SimulationError):
            Superoperator(np.eye(4)).depolarized(probability)
        with pytest.raises(SimulationError):
            Superoperator(np.eye(16)).depolarized(probability)

    @pytest.mark.parametrize(
        "duration, t1, t2",
        [
            (0.1, 10.0, 25.0),
            (-0.1, 10.0, 15.0),
            (0.1, 0.0, 1.0),
            (0.1, 1.0, 0.0),
        ],
    )
    def test_thermal_parameters(self, duration, t1, t2):
        with pytest.raises(SimulationError):
            thermal_superoperator(duration, t1, t2)
        with pytest.raises(SimulationError):
            thermal_relaxation_channel(duration, t1, t2)
