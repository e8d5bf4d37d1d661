"""The array drift state against the per-object advance it replaced.

Before the device held its drifting values in one :class:`DriftState`,
every parameter was its own Ornstein-Uhlenbeck object, advanced one at a
time in the device's advance order (each qubit's six values, then each
(link, gate)'s three) with one scalar normal draw per non-frozen value.
That arithmetic survives here only, as :class:`_ReferenceProcess`, the
oracle for :meth:`DriftState.advance`.

Each case runs two devices built from one recipe through the same seeded
sequence of advances, calibrations and unseeded jobs. One advances with
the library's array advance; the other's drift state is advanced by the
reference processes, which publish their values into its arrays so its
calibration reads them (and whose clip must match the array clip). After
every step the two must agree bit for bit
on ``parameter_state()``, clipped values, clock, drift epoch, the drift,
sample and calibration generator states, and every calibration record.

Extra seeds come from ``REPRO_DIFFERENTIAL_SEEDS`` (comma-separated), as
in ``tests/test_differential.py``.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.device import (
    NOISELESS_PROFILE,
    CalibrationService,
    RigettiAspenDevice,
    aspen11,
    aspen_m1,
    build_device,
    small_test_device,
)
from repro.device.drift import DriftingValue, DriftState
from repro.device.native_gates import cnot_decomposition, hadamard_native
from repro.device.noise_parameters import (
    QubitNoiseParameters,
    TwoQubitGateNoiseParameters,
)
from repro.device.topology import linear_topology
from repro.exceptions import DeviceError
from tests.test_differential import _seeds

_HOUR_US = 3_600e6


@dataclass
class _ReferenceProcess:
    """One drifting parameter, advanced on its own (the old per-object
    ``OrnsteinUhlenbeck.advance`` plus ``DriftingValue.current``)."""

    mean: float
    std: float
    tau: float
    value: float
    low: float
    high: float

    def advance(self, dt, rng):
        if dt < 0:
            raise DeviceError("cannot advance time backwards")
        if dt == 0 or self.std == 0:
            return
        decay = math.exp(-dt / self.tau)
        noise_scale = self.std * math.sqrt(1.0 - decay**2)
        self.value = (
            self.mean
            + (self.value - self.mean) * decay
            + noise_scale * float(rng.standard_normal())
        )

    @property
    def current(self):
        return float(min(self.high, max(self.low, self.value)))


class _ReferenceDrift:
    """Drives a device's drift state with per-object reference processes."""

    def __init__(self, state: DriftState) -> None:
        self.state = state
        self.processes = [
            _ReferenceProcess(*state.row(index)) for index in range(len(state))
        ]

    def advance(self, dt, rng):
        if dt < 0:
            raise DeviceError("cannot advance time backwards")
        if dt == 0:
            return
        for process in self.processes:
            process.advance(dt, rng)
        # The public rows are read-only; publish through the storage.
        self.state._value[:] = [process.value for process in self.processes]
        self.state._refresh()
        assert _bits(self.state.current) == _bits(
            [process.current for process in self.processes]
        )


def _referenced(device: RigettiAspenDevice) -> _ReferenceDrift:
    """Route *device*'s advances through the per-object reference."""
    reference = _ReferenceDrift(device.drift)
    device.drift.advance = reference.advance
    return reference


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_same_chip_day(left, right) -> None:
    """Two (device, calibration service) pairs in one state, bit for bit."""
    (device_a, service_a), (device_b, service_b) = left, right
    state_a, state_b = device_a.parameter_state(), device_b.parameter_state()
    assert list(state_a) == list(state_b)
    assert _bits(list(state_a.values())) == _bits(list(state_b.values()))
    assert _bits(device_a.drift.current) == _bits(device_b.drift.current)
    assert device_a.clock_us == device_b.clock_us
    assert device_a.drift_epoch == device_b.drift_epoch
    for rng_a, rng_b in (
        (device_a._drift_rng, device_b._drift_rng),
        (device_a.sample_rng, device_b.sample_rng),
        (service_a._rng, service_b._rng),
    ):
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert service_a.data == service_b.data
    assert service_a._last_calibrated_us == service_b._last_calibrated_us


def _hand_built() -> RigettiAspenDevice:
    """Two distinct ``tau``s, frozen slots between drifting ones, and
    values sitting exactly on (or beyond) their clip bounds."""
    fast, slow = 2 * _HOUR_US, 11 * _HOUR_US
    inf = math.inf
    qubit_rows = [
        [
            (30.0, 4.0, fast, 1.0, 1.0, inf),  # t1 on its low bound
            (40.0, 5.0, slow, 40.0, 0.5, inf),
            (0.02, 0.01, fast, 0.5, 0.0, 0.5),  # readout on its high bound
            (0.01, 0.0, slow, 0.01, 0.0, 0.5),  # frozen
            (1e-3, 5e-4, slow, -1e-3, 0.0, 0.1),  # below its low bound
            (0.0, 0.06, fast, 0.5, -0.5, 0.5),
        ]
        for _ in range(3)
    ]
    gate_rows = [
        (0.1, 0.3, slow, -0.8, -0.8, 0.8),  # over-rotation on low bound
        (-0.2, 0.3, fast, 0.9, -0.8, 0.8),  # ZZ beyond its high bound
        (0.01, 0.006, slow, 0.01, 0.0, 0.3),
    ]
    topology = linear_topology(3, name="hand-built")
    gate_keys = [
        (link, gate)
        for link in topology.links
        for gate in ("xy", "cz", "cphase")
    ]
    drift = DriftState(
        [row for rows in qubit_rows for row in rows]
        + [row for _ in gate_keys for row in gate_rows]
    )
    qubit_params = {
        qubit: QubitNoiseParameters(drift, 6 * index)
        for index, qubit in enumerate(topology.qubits)
    }
    gate_params = {
        key: TwoQubitGateNoiseParameters(drift, 18 + 3 * index, 100.0)
        for index, key in enumerate(gate_keys)
    }
    return RigettiAspenDevice(topology, qubit_params, gate_params, seed=5)


_DEVICES = {
    "aspen-11": lambda: aspen11(seed=11),
    "aspen-m-1": lambda: aspen_m1(seed=1),
    "small": lambda: small_test_device(5, seed=7),
    "noiseless": lambda: build_device(
        linear_topology(4), seed=2, profile=NOISELESS_PROFILE
    ),
    "hand-built": _hand_built,
}


def _step_dt(rng: np.random.Generator) -> float:
    """Zero, sub-microsecond, one job, one calibration sweep, or hours."""
    kind = int(rng.integers(5))
    if kind == 0:
        return 0.0
    if kind == 1:
        return float(rng.uniform(0.01, 1.0))
    if kind == 2:
        return 50_000.0 + 256 * (float(rng.uniform(1.0, 8.0)) + 10.0)
    if kind == 3:
        return 5_000_000.0
    return float(rng.uniform(0.5, 30.0)) * _HOUR_US


def _probe_circuit(device: RigettiAspenDevice) -> QuantumCircuit:
    qubit_a, qubit_b = device.links_supporting("cz")[0]
    circuit = QuantumCircuit(max(qubit_a, qubit_b) + 1, name="probe")
    for gate in hadamard_native(qubit_a):
        circuit.append(gate)
    for gate in cnot_decomposition("cz", qubit_a, qubit_b):
        circuit.append(gate)
    circuit.measure(qubit_a)
    circuit.measure(qubit_b)
    return circuit


def _run_pair(name: str, seed: int, steps: int) -> None:
    pair = []
    for _ in range(2):
        device = _DEVICES[name]()
        service = CalibrationService(device, seed=seed)
        service.full_calibration()
        pair.append((device, service))
    reference = _referenced(pair[1][0])
    assert_same_chip_day(pair[0], pair[1])
    schedule = np.random.default_rng(1000 + seed)
    circuit = _probe_circuit(pair[0][0])
    for step in range(steps):
        dt = _step_dt(schedule)
        action = int(schedule.integers(6))
        for device, service in pair:
            device.advance_time(dt)
            if action == 0:
                service.maybe_recalibrate()
            elif action == 1:
                device.run(circuit, 16)  # unseeded: draws from sample_rng
            elif action == 2 and step % 10 == 0:
                service.full_calibration()
        assert_same_chip_day(pair[0], pair[1])
    assert _bits(pair[0][0].drift.value) == _bits(
        [process.value for process in reference.processes]
    )


@pytest.mark.parametrize("seed", _seeds(range(3)))
@pytest.mark.parametrize("name", sorted(_DEVICES))
def test_array_advance_matches_per_object_reference(name, seed):
    _run_pair(name, seed, steps=60)


def test_frozen_device_draws_nothing_but_moves_its_epoch():
    device = _DEVICES["noiseless"]()
    assert device.drift.std.max() == 0.0
    before = device._drift_rng.bit_generator.state
    device.advance_time(3 * _HOUR_US)
    assert device._drift_rng.bit_generator.state == before
    assert device.drift_epoch == 1  # the epoch still moves with the clock


def test_zero_advance_neither_draws_nor_bumps_the_epoch():
    device = aspen11(seed=11)
    before = device._drift_rng.bit_generator.state
    device.advance_time(0.0)
    assert device.drift_epoch == 0 and device.clock_us == 0.0
    assert device._drift_rng.bit_generator.state == before
    with pytest.raises(DeviceError):
        device.advance_time(-1.0)


class TestFieldEdits:
    """Reassigning a drifting field writes through to the arrays."""

    def test_reassigned_field_drifts_and_reads_from_the_state(self):
        device = small_test_device(3, seed=4)
        params = device.qubit_params[1]
        params.t2_us = DriftingValue.fixed(12.5)
        slot = params.offset + QubitNoiseParameters.FIELDS.index("t2_us")
        assert device.drift.current[slot] == 12.5
        assert device.drift.std[slot] == 0.0
        device.advance_time(5 * _HOUR_US)
        assert params.t2_us.current == 12.5  # frozen by the edit
        assert device.parameter_state()[("q", 1, 1)] == 12.5

    def test_records_passed_to_the_constructor_stay_untouched(self):
        source = small_test_device(3, seed=4)
        copy = RigettiAspenDevice(
            source.topology, source.qubit_params, source.gate_params
        )
        copy.qubit_params[0].t1_us = DriftingValue.fixed(3.0)
        assert source.qubit_params[0].t1_us.current != 3.0

    def test_parameter_maps_are_read_only(self):
        device = small_test_device(3, seed=4)
        with pytest.raises(TypeError):
            del device.gate_params[((0, 1), "cz")]
        with pytest.raises(TypeError):
            device.qubit_params[0] = device.qubit_params[1]

    def test_drift_rows_are_read_only(self):
        drift = small_test_device(3, seed=4).drift
        for row in (drift.mean, drift.std, drift.tau, drift.value,
                    drift.low, drift.high, drift.observed):
            with pytest.raises(ValueError):
                row[0] = 1.0


class TestParameterFingerprint:
    """The cross-request dedup key changes with any physics change."""

    def test_one_ulp_on_any_value_changes_the_digest(self):
        device = aspen11(seed=11)
        device.advance_time(2 * _HOUR_US)
        drift = device.drift
        base = device.parameter_fingerprint()
        assert len(drift) == 612
        beyond = (drift.value < drift.low) | (drift.value > drift.high)
        changed = 0
        for index in range(len(drift)):
            row = drift.row(index)
            observed = drift.current[index]
            nudged = float(np.nextafter(row[3], np.inf))
            drift.assign(index, (*row[:3], nudged, *row[4:]))
            # The digest follows the clipped value the physics reads: a
            # nudge beyond a clip bound leaves both put.
            moved = drift.current[index] != observed
            assert moved != bool(beyond[index]), index
            assert (device.parameter_fingerprint() != base) == moved, index
            changed += moved
            drift.assign(index, row)
        assert changed == 612 - int(beyond.sum()) >= 600
        assert device.parameter_fingerprint() == base

    def test_same_recipe_and_advances_give_equal_digests(self):
        left, right = aspen11(seed=11), aspen11(seed=11)
        for dt in (0.5, 6e4, 5e6, 3 * _HOUR_US):
            left.advance_time(dt)
            right.advance_time(dt)
            assert (
                left.parameter_fingerprint() == right.parameter_fingerprint()
            )
        other_day = aspen11(seed=12).parameter_fingerprint()
        assert left.parameter_fingerprint() != other_day

    def test_epoch_changes_the_digest(self):
        device = _DEVICES["noiseless"]()
        before = device.parameter_fingerprint()
        device.advance_time(_HOUR_US)  # values frozen, epoch moves
        assert device.parameter_fingerprint() != before

    def test_physics_flags_change_the_digest(self):
        digests = {
            aspen11(seed=11).parameter_fingerprint(),
            aspen11(seed=11, idle_noise=True).parameter_fingerprint(),
            aspen11(seed=11, crosstalk_zz=0.05).parameter_fingerprint(),
        }
        assert len(digests) == 3

    def test_field_edits_change_the_digest(self):
        device = small_test_device(3, seed=4)
        before = device.parameter_fingerprint()
        params = device.gate_params[((0, 1), "cz")]
        params.zz_error = DriftingValue.fixed(0.0)
        edited = device.parameter_fingerprint()
        assert edited != before
        # Bounds count through the clipped value: widening them around a
        # value already inside leaves the physics, and the digest, put...
        value = params.depolarizing.value
        assert params.depolarizing.current == value
        params.depolarizing = DriftingValue.fixed(value)
        assert device.parameter_fingerprint() == edited
        # ...while a bound that clips the value changes both.
        slot = params.depolarizing.index
        mean, std, tau, raw, low, _ = device.drift.row(slot)
        device.drift.assign(slot, (mean, std, tau, raw, low, raw / 2))
        assert params.depolarizing.current == raw / 2
        assert device.parameter_fingerprint() != edited
