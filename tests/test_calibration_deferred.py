"""Deferred analytic calibration records against the eager sweep.

An analytic calibration sweep draws each record's estimation noise and
stamps it at sweep time, but evaluates the ground truth only when the
record is first read, from the parameter snapshot the sweep kept. Before
that, every sweep evaluated the truth of every link on the spot. That
eager sweep survives here only, as :class:`_EagerCalibrationService`,
the oracle: patched into :meth:`ExperimentContext.create`, it builds the
same chip day the old way, and every record, the calibration generator
and the device clock must agree bit for bit.

Extra seeds come from ``REPRO_DIFFERENTIAL_SEEDS`` (comma-separated), as
in ``tests/test_differential.py``.
"""

import copy
import pickle
import struct
import sys
import threading

import numpy as np
import pytest

import repro.device.device as device_module
import repro.experiments.context as context_module
from repro.device import (
    CalibrationRecord,
    CalibrationService,
    interleaved_rb_fidelity,
    mirror_benchmark_fidelity,
    small_test_device,
)
from repro.device.calibration import _CALIBRATION_SWEEP_US
from repro.device.drift import DriftingValue
from repro.experiments import ExperimentContext
from repro.experiments.drift_study import fig8_stale_calibration
from repro.service import RequestSpec, run_standalone
from tests.oracle import differential_seeds

_HOUR_US = 3_600e6


class _EagerCalibrationService(CalibrationService):
    """The analytic sweep as it was: ground truth evaluated at sweep time."""

    def calibrate_gate(self, gate_name):
        assert self.mode == "analytic"
        links = self.device.links_supporting(gate_name)
        for link in links:
            truth = self.device.true_pulse_fidelity(link, gate_name)
            noisy = truth + self.estimation_noise_std * float(
                self._rng.standard_normal()
            )
            self.data.two_qubit[(link, gate_name)] = CalibrationRecord(
                float(min(1.0, max(0.25, noisy))), self.device.clock_us
            )
        self.device.advance_time(_CALIBRATION_SWEEP_US)
        self._last_calibrated_us[gate_name] = self.device.clock_us
        return len(links)

    def calibrate_single_qubit(self):
        for qubit in self.device.topology.qubits:
            truth = self.device.true_rx_fidelity(qubit)
            noisy = truth + 0.3 * self.estimation_noise_std * float(
                self._rng.standard_normal()
            )
            self.data.single_qubit[qubit] = CalibrationRecord(
                float(min(1.0, max(0.25, noisy))), self.device.clock_us
            )


@pytest.fixture
def eager(monkeypatch):
    """Run a callable with the eager oracle patched into ``create``."""

    def run(build):
        with monkeypatch.context() as patch:
            patch.setattr(
                context_module, "CalibrationService", _EagerCalibrationService
            )
            return build()

    return run


@pytest.fixture
def evaluations(monkeypatch):
    """Count every ground-truth fidelity evaluation (pulse and RX)."""
    calls = []
    average = device_module._average_fidelity

    def counted(noise):
        calls.append(noise.dim)
        return average(noise)

    monkeypatch.setattr(device_module, "_average_fidelity", counted)
    return calls


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _published(data):
    """Every record of a calibration page as ``(value bits, timestamp)``."""
    return {
        (kind, key): (_bits(record.value), record.timestamp_us)
        for kind, records in (
            ("2q", data.two_qubit),
            ("1q", data.single_qubit),
            ("readout", data.readout),
        )
        for key, record in records.items()
    }


def _assert_same_calibration(lazy, oracle):
    assert _published(lazy.calibration) == _published(oracle.calibration)
    assert (
        lazy.service._rng.bit_generator.state
        == oracle.service._rng.bit_generator.state
    )
    assert lazy.device.clock_us == oracle.device.clock_us
    assert (
        lazy.service._last_calibrated_us
        == oracle.service._last_calibrated_us
    )


_DEVICE_SEEDS = {"aspen-11": 11, "aspen-m-1": 1}


@pytest.mark.parametrize("hours", [0.0, 4.0, 30.0])
@pytest.mark.parametrize("device_name", sorted(_DEVICE_SEEDS))
@pytest.mark.parametrize("seed", differential_seeds([0]))
def test_records_match_the_eager_sweep(eager, device_name, hours, seed):
    recipe = dict(
        device_name=device_name,
        seed=_DEVICE_SEEDS[device_name] + seed,
        calibration_seed=3 + seed,
        drift_hours=hours,
    )
    oracle = eager(lambda: ExperimentContext.create(**recipe))
    assert isinstance(oracle.service, _EagerCalibrationService)
    lazy = ExperimentContext.create(**recipe)
    assert type(lazy.service) is CalibrationService
    _assert_same_calibration(lazy, oracle)


def test_read_after_drift_and_field_edit_reports_the_sweep_value(eager):
    recipe = dict(seed=23, calibration_seed=3, drift_hours=4.0)
    oracle = eager(lambda: ExperimentContext.create(**recipe))
    lazy = ExperimentContext.create(**recipe)
    device = lazy.device
    link = min(lazy.calibration.two_qubit)[0]
    truth_before = device.true_pulse_fidelity(link, "cz")
    # Move the live parameters every way they can move, reading nothing.
    device.advance_time(7 * _HOUR_US)
    device.gate_params[(link, "cz")].over_rotation = DriftingValue.fixed(0.4)
    device.qubit_params[link[0]].t1_us = DriftingValue.fixed(3.0)
    assert device.true_pulse_fidelity(link, "cz") != truth_before
    assert _published(lazy.calibration) == _published(oracle.calibration)


def test_fig8_reads_every_step_like_the_eager_sweep(eager):
    oracle = eager(fig8_stale_calibration)
    lazy = fig8_stale_calibration()
    assert repr(lazy.rows) == repr(oracle.rows)
    assert repr(lazy.series) == repr(oracle.series)
    assert lazy.notes == oracle.notes


def test_create_evaluates_nothing_and_each_read_evaluates_once(evaluations):
    context = ExperimentContext.create(drift_hours=30.0)
    assert evaluations == []
    data = context.calibration
    two_qubit = sorted(data.two_qubit)[:10]
    single_qubit = sorted(data.single_qubit)[:3]
    first = [data.two_qubit[key].value for key in two_qubit]
    first += [data.single_qubit[qubit].value for qubit in single_qubit]
    # Hilbert dimension per evaluation: 4 for a pulse, 2 for an RX.
    assert evaluations == [4] * len(two_qubit) + [2] * len(single_qubit)
    again = [data.two_qubit[key].value for key in two_qubit]
    again += [data.single_qubit[qubit].value for qubit in single_qubit]
    assert again == first
    repr(data.two_qubit[two_qubit[0]])
    assert data.two_qubit[two_qubit[0]] == data.two_qubit[two_qubit[0]]
    assert len(evaluations) == len(two_qubit) + len(single_qubit)


def test_30h_request_evaluates_at_most_one_fidelity_per_published_record(
    evaluations,
):
    spec = RequestSpec(
        program="GHZ_n4", shots=64, probe_shots=16, drift_hours=30.0
    )
    context = ExperimentContext.create(drift_hours=spec.drift_hours)
    records = len(context.calibration.two_qubit)
    assert evaluations == []
    run_standalone(spec)
    assert 0 < len(evaluations) <= records == 128
    assert set(evaluations) == {4}  # pulse records only; RX never read


@pytest.mark.parametrize("template_first", [True, False])
def test_clone_and_template_agree_whoever_resolves_first(
    eager, template_first
):
    recipe = dict(seed=23, calibration_seed=3, drift_hours=30.0)
    oracle = eager(lambda: ExperimentContext.create(**recipe))
    template = ExperimentContext.create(**recipe)
    clone = template.clone()
    snapshot = template.calibration.snapshot()
    shared = template.calibration.two_qubit
    for data in (clone.calibration, snapshot):
        assert all(data.two_qubit[key] is shared[key] for key in shared)
    readers = [template, clone] if template_first else [clone, template]
    for index, key in enumerate(sorted(shared)):
        readers[index % 2].calibration.two_qubit[key].value
    _assert_same_calibration(template, oracle)
    _assert_same_calibration(clone, oracle)
    assert _published(snapshot) == _published(oracle.calibration)
    # Moving on, the clone publishes new records and leaves shared ones.
    oracle_clone = oracle.clone()
    for context in (clone, oracle_clone):
        context.device.advance_time(5 * _HOUR_US)
        assert context.service.maybe_recalibrate() == ["xy", "cz"]
    _assert_same_calibration(clone, oracle_clone)
    _assert_same_calibration(template, oracle)
    for (link, gate), record in clone.calibration.two_qubit.items():
        assert (record is shared[(link, gate)]) == (gate == "cphase")


def test_threads_resolving_shared_records_store_the_eager_values(eager):
    """Service workers read the records their clones share with one
    memoized template; each may resolve a record another is resolving."""
    recipe = dict(seed=11, calibration_seed=3, drift_hours=30.0)
    oracle = _published(
        eager(lambda: ExperimentContext.create(**recipe)).calibration
    )
    expected = {key[1]: bits for key, (bits, _) in oracle.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):  # fresh unread records each round
            template = ExperimentContext.create(**recipe)
            seen, errors = _race_readers(
                [template.clone() for _ in range(8)]
            )
            assert errors == []
            assert seen == [
                {key: expected[key] for key in template.calibration.two_qubit}
            ] * 8
            assert _published(template.calibration) == oracle
    finally:
        sys.setswitchinterval(interval)


def _race_readers(contexts):
    """Every context reads every two-qubit record at once, in one order."""
    start = threading.Barrier(len(contexts))
    seen, errors = [], []

    def read(context):
        try:
            start.wait(timeout=10)
            records = context.calibration.two_qubit
            seen.append({key: _bits(records[key].value) for key in records})
        except Exception as error:  # reported by the caller's assertion
            errors.append(error)

    threads = [threading.Thread(target=read, args=(c,)) for c in contexts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return seen, errors


@pytest.mark.parametrize(
    "mode, shots, measure, pinned",
    [
        (
            "mirror",
            64,
            mirror_benchmark_fidelity,
            (0.9448367220840947, 203415.04),
        ),
        (
            "irb",
            128,
            interleaved_rb_fidelity,
            (0.9547828483629047, 1249423.3599999999),
        ),
    ],
)
def test_benchmarking_modes_measure_at_sweep_time(
    mode, shots, measure, pinned
):
    """Mirror and IRB sweeps run circuits, so they stay eager: a record
    read after heavy drift equals a twin device measured at sweep time,
    and the value the eager-only tree published (pinned; the fits may
    differ by rounding across numpy/scipy builds)."""
    device = small_test_device(2, seed=7)
    service = CalibrationService(device, mode=mode, mirror_shots=shots, seed=5)
    service.calibrate_gate("cz")
    device.advance_time(30 * _HOUR_US)
    device.gate_params[((0, 1), "cz")].depolarizing = DriftingValue.fixed(0.2)
    twin = small_test_device(2, seed=7)
    expected = measure(
        twin, (0, 1), "cz", shots=shots, rng=np.random.default_rng(5)
    )
    record = service.data.two_qubit[((0, 1), "cz")]
    assert _bits(record.value) == _bits(expected)
    assert record.timestamp_us == twin.clock_us == pinned[1]
    assert record.value == pytest.approx(pinned[0], abs=1e-12)
    assert device.clock_us == pinned[1] + 30 * _HOUR_US


def test_resolved_record_is_a_plain_immutable_value():
    record = CalibrationRecord(0.97, 12.0)
    assert record == CalibrationRecord(0.97, 12.0)
    assert hash(record) == hash(CalibrationRecord(0.97, 12.0))
    assert repr(record) == "CalibrationRecord(value=0.97, timestamp_us=12.0)"
    with pytest.raises(AttributeError):
        record.value = 0.5
    with pytest.raises(AttributeError):
        del record.timestamp_us
    assert not hasattr(record, "__dict__")


def test_deferred_record_becomes_plain_and_drops_its_snapshot():
    context = ExperimentContext.create(drift_hours=2.0)
    record = next(iter(context.calibration.two_qubit.values()))
    assert isinstance(record, CalibrationRecord)
    assert type(record) is not CalibrationRecord
    assert record._pending is not None
    value = record.value
    assert type(record) is CalibrationRecord
    assert record._pending is None
    assert record.value == value
    for duplicate in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(duplicate) is CalibrationRecord
        assert duplicate == record


def test_copies_of_an_unread_record_carry_its_value():
    context = ExperimentContext.create(drift_hours=2.0)
    record, twin = list(context.calibration.two_qubit.values())[:2]
    duplicate = copy.deepcopy(record)
    assert type(duplicate) is CalibrationRecord
    assert duplicate == record
    assert pickle.loads(pickle.dumps(twin)) == twin
