"""Prepared executables against the lowering they replaced, and the memo.

The reference below is the distribution pipeline the device ran before
it prepared circuits: relabel the circuit onto a compact register of new
``Gate`` objects, insert idle markers per moment on an idle-noise device,
lower the compact circuit into one fused channel per gate (built here
from the device's noise layout, without its channel cache), fuse the
stream greedily by composing one ``Superoperator`` per step, evolve
``|0..0>`` and apply readout. It is kept here as the
oracle: ``noisy_distribution`` must return a dict *equal* to it — bit
for bit, not within a tolerance — for every Table I program nativized
with each native gate, on aspen-11 at 0, 4 and 30 h of drift, with the
default physics, with idle noise and with spectator crosstalk. Extra
device seeds come from ``REPRO_DIFFERENTIAL_SEEDS``.

The second half pins the memo: content-equal circuits share one
executable whatever their names, invalid circuits raise on every call
and are never stored, clones share the memo, the bound evicts, and
threads racing to prepare the same circuits get equal executables.
"""

import math
import sys
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import circuit_moments
from repro.circuit.gates import Gate
from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.device.device import ExecutableMemo
from repro.device.presets import aspen11
from repro.exceptions import DeviceError
from repro.programs import benchmark_suite
from repro.sim.channels import Superoperator
from repro.sim.density_matrix import DensityMatrix, _apply_readout_confusion
from repro.sim.sampler import sample_distribution
from tests.test_differential import _seeds

_HOUR_US = 3_600e6
_GATES = ("xy", "cz", "cphase")


# ----------------------------------------------------------------------
# The reference: compact circuit, idle markers, lower and fuse, evolve
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LoweredOp:
    superop: Superoperator
    qubits: Tuple[int, ...]


def _compact_circuit(circuit: QuantumCircuit, used: List[int]):
    """Relabel physical qubits onto a dense 0..k-1 register."""
    local_of = {phys: local for local, phys in enumerate(used)}
    compact = QuantumCircuit(len(used), name=circuit.name)
    for gate in circuit:
        if gate.is_barrier:
            compact.barrier()
        else:
            compact.append(
                Gate(
                    gate.name,
                    tuple(local_of[q] for q in gate.qubits),
                    gate.params,
                )
            )
    return compact


def _with_idle_markers(device, compact: QuantumCircuit) -> QuantumCircuit:
    """Insert ``idle`` gates per moment on untouched wires."""
    marked = QuantumCircuit(compact.num_qubits, name=compact.name)
    for moment in circuit_moments(compact):
        duration = max(
            (device._gate_duration_ns(g) for g in moment.gates),
            default=0.0,
        )
        busy = set(moment.qubits())
        for _, gate in moment.items:
            marked.append(gate)
        if duration <= 0:
            continue
        for qubit in range(compact.num_qubits):
            if qubit not in busy:
                marked.append(Gate("idle", (qubit,), (duration,)))
    return marked


def _operation_compiler(device, used: List[int]):
    """Each compact gate's fused channels, built from scratch at the
    device's current values as the device built them before executables
    (no channel cache): ``N (U x conj(U))`` per gate, the relaxation
    alone per idle marker, and the spectator couplings after each
    entangling pulse."""
    phys_of = dict(enumerate(used))
    values = device.drift.current
    layout = device.noise_layout

    def compiler(gate: Gate):
        if gate.name == "idle":
            duration_us = gate.params[0] / 1000.0
            if duration_us <= 0:
                return ()
            idle = layout._fused_idle(
                phys_of[gate.qubits[0]], duration_us, values
            )
            return ((idle, gate.qubits),)
        superop = Superoperator.from_unitary(gate.matrix(), gate.name)
        if gate.num_qubits == 1:
            if gate.name != "rz":
                phys = phys_of[gate.qubits[0]]
                superop = superop.then(layout._rx_noise(phys, values))
            return ((superop, gate.qubits),)
        pair = (phys_of[gate.qubits[0]], phys_of[gate.qubits[1]])
        noise = layout._pulse_noise(gate.name, pair, values)
        operations = [(superop.then(noise), gate.qubits)]
        if device.crosstalk_zz:
            crosstalk = Superoperator.from_unitary(
                device._crosstalk_unitary(), "crosstalk_zz"
            )
            operations.extend(
                (crosstalk, spectator_pair)
                for spectator_pair in device._crosstalk_pairs(
                    gate.qubits, phys_of
                )
            )
        return tuple(operations)

    return compiler


def _lower(compiler, circuit: QuantumCircuit) -> List[_LoweredOp]:
    """The raw per-gate stream, layer-fused."""
    stream = [
        _LoweredOp(superop, tuple(qubits))
        for gate in circuit
        if gate.is_unitary
        for superop, qubits in compiler(gate)
    ]
    return _fused(stream)


def _fused(stream: List[_LoweredOp]) -> List[_LoweredOp]:
    fused: List[_LoweredOp] = []
    for op in stream:
        if fused:
            merged = _try_fuse(fused[-1], op)
            if merged is not None:
                fused[-1] = merged
                continue
        fused.append(op)
    return fused


def _try_fuse(pending: _LoweredOp, nxt: _LoweredOp) -> Optional[_LoweredOp]:
    if nxt.qubits == pending.qubits:
        superop = pending.superop.then(nxt.superop)
        qubits = pending.qubits
    elif (
        len(nxt.qubits) == 1
        and len(pending.qubits) == 2
        and nxt.qubits[0] in pending.qubits
    ):
        position = pending.qubits.index(nxt.qubits[0])
        superop = pending.superop.then(nxt.superop.embed(position, 2))
        qubits = pending.qubits
    elif (
        len(pending.qubits) == 1
        and len(nxt.qubits) == 2
        and pending.qubits[0] in nxt.qubits
    ):
        position = nxt.qubits.index(pending.qubits[0])
        superop = pending.superop.embed(position, 2).then(nxt.superop)
        qubits = nxt.qubits
    else:
        return None
    return _LoweredOp(superop, qubits)


def _reference_distribution(device, circuit: QuantumCircuit):
    device._validate(circuit)
    used = device._used_qubits(circuit)
    compact = _compact_circuit(circuit, used)
    if device.idle_noise:
        compact = _with_idle_markers(device, compact)
    readout = [device.qubit_params[phys].readout_error() for phys in used]
    lowered = _lower(_operation_compiler(device, used), compact)
    state = DensityMatrix(compact.num_qubits)
    for op in lowered:
        state.apply_superoperator(op.superop, op.qubits)
    measured = compact.measured_qubits()
    probs = _apply_readout_confusion(
        state.probabilities(measured), measured, readout
    )
    width = len(measured)
    return {
        format(i, f"0{width}b"): float(p)
        for i, p in enumerate(probs)
        if p > 1e-14
    }


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
@pytest.mark.parametrize("seed", _seeds([11]))
def test_distributions_equal_the_reference(seed, physics, hours):
    device = aspen11(seed=seed, **_PHYSICS[physics])
    device.advance_time(hours * _HOUR_US)
    twin = device.clone()
    for gate in _GATES:
        for circuit in _nativized(device, gate):
            prepared = device.noisy_distribution(circuit)
            assert prepared == _reference_distribution(twin, circuit)
            executable = device.prepare(circuit)
            assert executable.duration_us == device.circuit_duration_us(
                circuit
            )
            assert list(executable.qubits) == device._used_qubits(circuit)


def test_run_counts_and_log_equal_the_reference_twin():
    """``run`` samples the prepared distribution and logs the circuit's
    duration and qubits: counts and clocks match a twin sampling the
    reference distribution itself."""
    device = aspen11(seed=11)
    twin = device.clone()
    for circuit in _nativized(device, "cz"):
        counts = device.run(circuit, 500, seed=3)
        reference = _reference_distribution(twin, circuit)
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
    assert device.noisy_distribution(circuits[0]) == _reference_distribution(
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
