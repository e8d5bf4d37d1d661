"""Batched noise maps against the per-key oracle.

``NoiseLayout`` builds every noise map of one kind — the ``rx`` maps,
the entangling-pulse maps, the idle relaxations — and their fidelities
as one stack per call, and the device builds a job's missing channels
with one call per kind. Every stacked map, fused channel and fidelity
must equal the per-key construction of ``tests/oracle.py`` bit for bit:
``np.array_equal`` on matrices, ``==`` on floats, never a tolerance. The
sweep covers every channel key kind on aspen-11 and aspen-m-1 with idle
noise and spectator crosstalk on, in batches of one and of all keys of a
device, at 0 and 30 h of drift; extra device seeds come from
``REPRO_DIFFERENTIAL_SEEDS``.

The drift-free memo is pinned too: ``rz`` channels and the ideal
``U (x) conj(U)`` factors are shared, read-only arrays, and the memo
stays within its bound.
"""

import math

import numpy as np
import pytest

import repro.device.device as device_module
from repro.device import small_test_device
from repro.device.drift import DriftingValue
from repro.device.presets import aspen11
from repro.exceptions import DeviceError
from repro.experiments import ExperimentContext
from tests.oracle import (
    build_channel,
    differential_seeds,
    fused_idle,
    pulse_fidelity,
    pulse_noise,
    rx_fidelity,
    rx_noise,
)

_DEVICE_SEEDS = {"aspen-11": 11, "aspen-m-1": 1}
_TWO_QUBIT_PARAMS = {
    "cz": [()],
    "cphase": [(math.pi / 2,), (-1.1,)],
    "xy": [(math.pi,), (0.9,)],
}


def _keys(device):
    """Every channel key kind on every qubit and link (both orders)."""
    keys = []
    for qubit in device.topology.qubits:
        for theta in (math.pi / 2, -math.pi / 2, math.pi, 0.37):
            keys.append(("fused-1q", "rx", (theta,), qubit))
        for theta in (0.7, -2.3):
            keys.append(("fused-1q", "rz", (theta,), qubit))
        for duration_ns in (60.0, 200.0):
            keys.append(("fused-idle", qubit, (duration_ns,)))
    for link, gate in device.gate_params:
        for params in _TWO_QUBIT_PARAMS[gate]:
            for pair in (link, link[::-1]):
                keys.append(("fused-2q", gate, params, pair))
    keys.append(("xtalk-superop",))
    return keys


@pytest.fixture(
    scope="module",
    params=[
        (name, seed, hours)
        for name in sorted(_DEVICE_SEEDS)
        for seed in differential_seeds([0])
        for hours in (0.0, 30.0)
    ],
    ids=lambda p: f"{p[0]}-seed{p[1]}-{p[2]:g}h",
)
def device(request):
    name, seed, hours = request.param
    context = ExperimentContext.create(
        device_name=name,
        seed=_DEVICE_SEEDS[name] + seed,
        calibration_seed=3 + seed,
        drift_hours=hours,
        idle_noise=True,
        crosstalk_zz=0.03,
    )
    yield context.device
    context.close()


def _assert_same(stack, references):
    assert len(stack) == len(references)
    for matrix, reference in zip(stack, references):
        assert np.array_equal(matrix, reference.matrix)


class TestChannels:
    def test_every_key_in_one_batch(self, device):
        keys = _keys(device)
        assert {key[0] for key in keys} == {
            "fused-1q", "fused-2q", "fused-idle", "xtalk-superop"
        }
        assert {key[1] for key in keys if key[0].startswith("fused-")} >= {
            "rx", "rz", "cz", "cphase", "xy"
        }
        built = device._build_channels(keys)
        for key, superop in zip(keys, built):
            assert np.array_equal(
                superop.matrix, build_channel(device, key).matrix
            ), key

    def test_every_key_alone(self, device):
        for key in _keys(device):
            assert np.array_equal(
                device._build_channel(key).matrix,
                build_channel(device, key).matrix,
            ), key

    def test_cached_batch_equals_the_oracle(self, device):
        keys = tuple(_keys(device))
        cache = device.channel_cache
        cache.invalidate(device.drift_epoch, device.drift.current)
        misses = cache.misses
        first = device._channels(keys)
        again = device._channels(keys)
        assert cache.misses == misses + len(keys)
        assert all(a is b for a, b in zip(first, again))
        for key, matrix in zip(keys, first):
            assert np.array_equal(matrix, build_channel(device, key).matrix)


class TestNoiseLayout:
    def test_pulse_maps(self, device):
        layout, values = device.noise_layout, device.drift.current
        pulses = [
            (pair, gate)
            for link, gate in device.gate_params
            for pair in (link, link[::-1])
        ]
        references = [pulse_noise(device, g, pair) for pair, g in pulses]
        _assert_same(layout.pulse_maps(pulses, values), references)
        for pulse, reference in zip(pulses, references):
            _assert_same(layout.pulse_maps([pulse], values), [reference])

    def test_rx_and_idle_maps(self, device):
        layout, values = device.noise_layout, device.drift.current
        qubits = list(device.topology.qubits)
        references = [rx_noise(device, q) for q in qubits]
        _assert_same(layout.rx_maps(qubits, values), references)
        _assert_same(layout.rx_maps(qubits[:1], values), references[:1])
        idles = [(q, d) for q in qubits for d in (0.06, 0.2, 3.0)]
        references = [fused_idle(device, q, d) for q, d in idles]
        _assert_same(layout.idle_maps(idles, values), references)
        _assert_same(layout.idle_maps(idles[-1:], values), references[-1:])

    def test_fidelities(self, device):
        layout, values = device.noise_layout, device.drift.current
        pulses = sorted(device.gate_params)
        expected = [pulse_fidelity(device, link, g) for link, g in pulses]
        assert layout.pulse_fidelities(pulses, values) == expected
        assert [
            device.true_pulse_fidelity(link, g) for link, g in pulses
        ] == expected
        qubits = list(device.topology.qubits)
        expected = [rx_fidelity(device, q) for q in qubits]
        assert layout.rx_fidelities(qubits, values) == expected
        assert [device.true_rx_fidelity(q) for q in qubits] == expected

    def test_sweep_reads_its_snapshot(self, device):
        """A sweep evaluated later reads the values it was given."""
        layout = device.noise_layout
        snapshot = device.drift.current
        pulses = sorted(device.gate_params)
        expected = [pulse_fidelity(device, link, g) for link, g in pulses]
        twin = device.clone()
        twin.advance_time(3_600e6)
        assert layout.pulse_fidelities(pulses, snapshot) == expected
        assert [
            pulse_fidelity(twin, link, g, snapshot) for link, g in pulses
        ] == expected


def test_mixed_edge_parameters_in_one_batch():
    """Keys without depolarizing or coherent error share a stack with
    keys that have them; each map still equals its own build."""
    dev = small_test_device(4, seed=4)
    (a, b), (c, d) = (0, 1), (2, 3)
    dev.gate_params[((a, b), "cz")].depolarizing = DriftingValue.fixed(0.0)
    params = dev.gate_params[((c, d), "cz")]
    params.over_rotation = DriftingValue.fixed(0.0)
    params.zz_error = DriftingValue.fixed(0.0)
    dev.qubit_params[a].rx_depolarizing = DriftingValue.fixed(0.0)
    dev.qubit_params[c].rx_over_rotation = DriftingValue.fixed(0.0)
    keys = [
        key
        for key in _keys(dev)
        if key[0] in ("fused-1q", "fused-idle")
        or (key[0] == "fused-2q" and key[1] == "cz")
    ]
    for key, superop in zip(keys, dev._build_channels(keys)):
        assert np.array_equal(superop.matrix, build_channel(dev, key).matrix)
    pulses = [((a, b), "cz"), ((c, d), "cz"), ((b, c), "cz")]
    expected = [pulse_fidelity(dev, link, g) for link, g in pulses]
    assert dev.noise_layout.pulse_fidelities(pulses, dev.drift.current) == (
        expected
    )


def test_missing_link_gate_raises():
    dev = small_test_device(3, seed=4)
    with pytest.raises(DeviceError):
        dev.noise_layout.pulse_maps([((0, 2), "cz")], dev.drift.current)
    with pytest.raises(DeviceError):
        dev.true_pulse_fidelity((0, 2), "cz")
    with pytest.raises(DeviceError):
        dev._build_channels([("fused-3q",)])


class TestDriftFreeMemo:
    def test_rz_channel_is_the_shared_read_only_entry(self):
        dev = small_test_device(3, seed=5)
        key = ("fused-1q", "rz", (0.7,), 1)
        matrix = dev._build_channel(key).matrix
        assert matrix is device_module._ideal_map("rz", (0.7,))
        assert matrix is dev.clone()._build_channel(key).matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_ideal_factors_are_read_only_and_fused_copies_are_not(self):
        dev = aspen11(seed=5, crosstalk_zz=0.02)
        ideal = device_module._ideal_map("cphase", (math.pi / 2,))
        assert not ideal.flags.writeable
        link = next(link for link, g in dev.gate_params if g == "cphase")
        key = ("fused-2q", "cphase", (math.pi / 2,), link)
        fused = dev._build_channel(key)
        assert fused.matrix is not ideal
        crosstalk = dev._build_channel(("xtalk-superop",)).matrix
        assert not crosstalk.flags.writeable
        twin = dev.clone()
        assert crosstalk is twin._build_channel(("xtalk-superop",)).matrix

    def test_memo_stays_within_its_bound(self):
        bound = device_module._IDEAL_MEMO_SIZE
        memo = device_module._ideal_map
        assert memo.cache_info().maxsize == bound
        for index in range(bound + 16):
            memo("rz", (index * 1e-3,))
        assert memo.cache_info().currsize == bound
