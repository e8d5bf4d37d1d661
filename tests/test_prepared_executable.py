"""Prepared executables against the oracles, and the memo.

``noisy_distribution`` must return a dict *equal* to the per-gate
oracle's (``tests/oracle.py``: compact circuit, idle markers, one fused
channel per gate built without the channel cache, greedy fusion by
composing one ``Superoperator`` per step) — bit for bit, not within a
tolerance — for every Table I program nativized with each native gate,
on aspen-11 at 0, 4 and 30 h of drift, with the default physics, with
idle noise and with spectator crosstalk. It must also agree with the
Kraus oracle, which applies every gate and every Kraus operator of its
noise separately, within 1e-12 (a subset: ``cz`` only, one age per
physics). Extra device seeds come from ``REPRO_DIFFERENTIAL_SEEDS``.

The second half pins the memo: content-equal circuits share one
executable whatever their names, invalid circuits raise on every call
and are never stored, clones share the memo, the bound evicts, and
threads racing to prepare the same circuits get equal executables.
"""

import math
import sys
import threading
from typing import List

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.device.device import ExecutableMemo
from repro.device.presets import aspen11
from repro.exceptions import DeviceError
from repro.programs import benchmark_suite
from repro.sim.sampler import sample_distribution
from tests.oracle import (
    differential_seeds,
    kraus_distribution,
    per_gate_distribution,
)

_HOUR_US = 3_600e6
_GATES = ("xy", "cz", "cphase")


# ----------------------------------------------------------------------
# Workload: Table I, nativized with each gate (where a link has it)
# ----------------------------------------------------------------------
def _nativized(device, gate: str) -> List[QuantumCircuit]:
    circuits = []
    for spec in benchmark_suite():
        compiled = transpile(spec.build(), device)
        options = compiled.gate_options()
        sequence = NativeGateSequence(
            tuple(compiled.sites),
            tuple(
                gate if gate in options[site.link] else options[site.link][0]
                for site in compiled.sites
            ),
        )
        circuits.append(
            nativize(
                compiled.scheduled,
                sequence.as_site_map(),
                device.native_gates,
                name_suffix=f"_{gate}",
            )
        )
    return circuits


_PHYSICS = {
    "default": {},
    "idle_noise": {"idle_noise": True},
    "crosstalk": {"crosstalk_zz": 0.05},
}


@pytest.mark.parametrize("hours", [0.0, 4.0, 30.0])
@pytest.mark.parametrize("physics", sorted(_PHYSICS))
@pytest.mark.parametrize("seed", differential_seeds([11]))
def test_distributions_equal_the_reference(seed, physics, hours):
    device = aspen11(seed=seed, **_PHYSICS[physics])
    device.advance_time(hours * _HOUR_US)
    twin = device.clone()
    for gate in _GATES:
        for circuit in _nativized(device, gate):
            prepared = device.noisy_distribution(circuit)
            assert prepared == per_gate_distribution(twin, circuit)
            executable = device.prepare(circuit)
            assert executable.duration_us == device.circuit_duration_us(
                circuit
            )
            assert list(executable.qubits) == device._used_qubits(circuit)


@pytest.mark.parametrize(
    "physics, hours",
    [("default", 0.0), ("idle_noise", 30.0), ("crosstalk", 4.0)],
)
@pytest.mark.parametrize("seed", differential_seeds([11]))
def test_distributions_match_the_kraus_oracle(seed, physics, hours):
    """Every gate's unitary and each Kraus operator of its noise applied
    one at a time give the same distribution to 1e-12."""
    device = aspen11(seed=seed, **_PHYSICS[physics])
    device.advance_time(hours * _HOUR_US)
    for circuit in _nativized(device, "cz"):
        prepared = device.noisy_distribution(circuit)
        reference = kraus_distribution(device, circuit)
        assert set(prepared) == set(reference)
        for key, probability in reference.items():
            assert prepared[key] == pytest.approx(probability, abs=1e-12)


def test_run_counts_and_log_equal_the_reference_twin():
    """``run`` samples the prepared distribution and logs the circuit's
    duration and qubits: counts and clocks match a twin sampling the
    reference distribution itself."""
    device = aspen11(seed=11)
    twin = device.clone()
    for circuit in _nativized(device, "cz"):
        counts = device.run(circuit, 500, seed=3)
        reference = per_gate_distribution(twin, circuit)
        assert counts == sample_distribution(
            reference, 500, np.random.default_rng(3)
        )
        twin.advance_time(
            50_000.0 + 500 * (twin.circuit_duration_us(circuit) + 10.0)
        )
        record = device.execution_log[-1]
        assert record.circuit_name == circuit.name
        assert record.qubits == tuple(device._used_qubits(circuit))
    assert device.clock_us == twin.clock_us


# ----------------------------------------------------------------------
# The memo
# ----------------------------------------------------------------------
def _bell(device, a=0, b=1, name="bell"):
    circuit = QuantumCircuit(device.topology.num_qubits, name=name)
    circuit.rz(math.pi / 2, a)
    circuit.rx(math.pi / 2, a)
    circuit.cz(a, b)
    circuit.measure(a)
    circuit.measure(b)
    return circuit


def test_content_equal_circuits_share_one_executable():
    device = small_test_device(5, seed=9)
    first = device.prepare(_bell(device, name="probe_a"))
    second = device.prepare(_bell(device, name="probe_b"))
    assert second is first
    assert device.executables.stats() == {
        "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
    }
    other = device.prepare(_bell(device, 1, 2))
    assert other.digest != first.digest
    assert other.qubits == (1, 2)
    assert len(device.executables) == 2


@pytest.mark.parametrize(
    "broken",
    ["unmeasured", "not_native", "not_a_link"],
)
def test_invalid_circuit_raises_every_call_and_is_never_stored(broken):
    device = small_test_device(5, seed=9)
    circuit = QuantumCircuit(5, name=broken)
    if broken == "unmeasured":
        circuit.rx(math.pi / 2, 0)
    elif broken == "not_native":
        circuit.h(0).measure(0)
    else:
        circuit.cz(0, 2).measure(0)
    for _ in range(2):
        with pytest.raises(DeviceError):
            device.prepare(circuit)
        with pytest.raises(DeviceError):
            device.run(circuit, 10, seed=1)
        with pytest.raises(DeviceError):
            device.noisy_distribution(circuit)
    assert len(device.executables) == 0
    assert device.execution_log == []
    assert device.clock_us == 0.0


def test_clones_share_the_memo():
    device = small_test_device(5, seed=9)
    executable = device.prepare(_bell(device))
    twin = device.clone()
    assert twin.executables is device.executables
    assert twin.prepare(_bell(device, name="other")) is executable
    twin.prepare(_bell(device, 2, 3))
    assert len(device.executables) == 2


def test_bound_evicts_and_an_evicted_circuit_prepares_equal():
    device = small_test_device(5, seed=9)
    device.executables = ExecutableMemo(max_entries=2)
    circuits = [_bell(device, a, a + 1) for a in range(3)]
    first = device.prepare(circuits[0])
    for circuit in circuits[1:]:
        device.prepare(circuit)
    assert len(device.executables) == 2
    assert device.executables.evictions == 1
    again = device.prepare(circuits[0])
    assert again is not first
    assert again == first
    assert device.executables.stats()["misses"] == 4
    assert device.noisy_distribution(circuits[0]) == per_gate_distribution(
        device.clone(), circuits[0]
    )


def test_threads_preparing_the_same_circuits_get_equal_executables():
    device = aspen11(seed=11)
    circuits = _nativized(device, "cz")
    expected = [aspen11(seed=11).prepare(circuit) for circuit in circuits]
    results = {}
    errors = []

    def worker(index):
        order = circuits[index:] + circuits[:index]
        try:
            for _ in range(3):
                results[index] = [
                    device.clone().prepare(circuit) for circuit in order
                ]
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for index, prepared in results.items():
        assert prepared == expected[index:] + expected[:index]
    assert len(device.executables) == len(set(e.digest for e in expected))
    stats = device.executables.stats()
    assert stats["hits"] + stats["misses"] == 4 * 3 * len(circuits)
