"""The reference simulators the tests compare the device against.

The device runs one simulator: each gate's channel built in closed form,
folded along the circuit's prepared executable, evolved and read out
(:meth:`~repro.device.device.RigettiAspenDevice.noisy_distribution`).
This module keeps the two independent paths it replaced, for tests to
compare it with:

* the **Kraus path** (:func:`kraus_distribution`): every gate's ideal
  unitary applied to a full density matrix, then the device's noise for
  that gate as Kraus channels, built from scratch out of its current
  parameter values — coherent error, depolarizing, each pulsed qubit's
  thermal relaxation, spectator crosstalk, and relaxation on idle wires;
* the **per-gate path** (:func:`per_gate_distribution`): the circuit
  relabelled onto a compact register of new ``Gate`` objects, with idle
  markers per moment on an idle-noise device, lowered into one fused
  channel per gate built from the device's noise layout without its
  channel cache, fused greedily by composing one ``Superoperator`` per
  step, evolved and read out.

It also holds the Kraus channel constructors and their superoperator
conversions (:func:`from_kraus`, :func:`embed`), the channel fidelity
formula, the per-shot tally :func:`per_shot_counts` that
:func:`~repro.sim.sampler.sample_distribution` is compared with, and
:func:`differential_seeds`, which every seeded sweep reads so
``REPRO_DIFFERENTIAL_SEEDS`` widens them all.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import circuit_moments
from repro.circuit.gates import Gate
from repro.device.noise_parameters import (
    coherent_error_unitary,
    single_qubit_coherent_error,
)
from repro.device.topology import make_link
from repro.exceptions import SimulationError
from repro.linalg import kron_n
from repro.sim.channels import (
    ReadoutError,
    Superoperator,
    _check_probability,
    _thermal_rates,
    embedded_matrix,
)
from repro.sim.density_matrix import DensityMatrix, _apply_readout_confusion
from repro.sim.sampler import Counts

_NS_PER_US = 1000.0


def differential_seeds(base: Iterable[int]) -> List[int]:
    """*base* plus the comma-separated extra seeds in
    ``REPRO_DIFFERENTIAL_SEEDS`` (the nightly differential sweep)."""
    raw = os.environ.get("REPRO_DIFFERENTIAL_SEEDS", "")
    return list(base) + [
        int(token) for token in raw.split(",") if token.strip()
    ]


# ----------------------------------------------------------------------
# Kraus channels
# ----------------------------------------------------------------------
_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class KrausChannel:
    """A completely-positive trace-preserving map in Kraus form: its
    operators, each ``d x d``, satisfy ``sum_i K_i^dag K_i = I``."""

    operators: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.operators:
            raise SimulationError("channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        for op in self.operators:
            if op.shape != (dim, dim):
                raise SimulationError("Kraus operators must share a shape")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def num_qubits(self) -> int:
        return int(math.log2(self.dim))

    def is_trace_preserving(self, atol: float = 1e-8) -> bool:
        total = sum(op.conj().T @ op for op in self.operators)
        return bool(np.allclose(total, np.eye(self.dim), atol=atol))

    def apply_to(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix of matching dimension."""
        return sum(op @ rho @ op.conj().T for op in self.operators)


def identity_channel(num_qubits: int = 1) -> KrausChannel:
    """The do-nothing channel on *num_qubits* qubits."""
    return KrausChannel((np.eye(2**num_qubits, dtype=complex),))


def unitary_channel(unitary: np.ndarray) -> KrausChannel:
    """A purely coherent channel — the state-dependent error carrier."""
    return KrausChannel((np.asarray(unitary, dtype=complex),))


def depolarizing_channel(probability: float) -> KrausChannel:
    """Single-qubit depolarizing channel with error probability *p*:
    Kraus weights ``sqrt(1 - p)`` on I and ``sqrt(p/3)`` on each Pauli."""
    _check_probability(probability)
    ops = [math.sqrt(1.0 - probability) * _PAULIS["I"]]
    ops.extend(
        math.sqrt(probability / 3.0) * _PAULIS[p] for p in ("X", "Y", "Z")
    )
    return KrausChannel(tuple(ops))


def two_qubit_depolarizing_channel(probability: float) -> KrausChannel:
    """Two-qubit depolarizing channel over the 15 non-identity Paulis."""
    _check_probability(probability)
    ops: List[np.ndarray] = [
        math.sqrt(1.0 - probability) * np.eye(4, dtype=complex)
    ]
    weight = math.sqrt(probability / 15.0)
    for name_a in "IXYZ":
        for name_b in "IXYZ":
            if name_a == name_b == "I":
                continue
            ops.append(weight * kron_n(_PAULIS[name_a], _PAULIS[name_b]))
    return KrausChannel(tuple(ops))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """T1 relaxation: |1> decays to |0> with probability *gamma*."""
    _check_probability(gamma)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def phase_damping_channel(lam: float) -> KrausChannel:
    """Pure dephasing: off-diagonals shrink by ``sqrt(1 - lambda)``."""
    _check_probability(lam)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel((k0, k1))


def thermal_relaxation_channel(
    duration: float, t1: float, t2: float
) -> KrausChannel:
    """Combined T1/T2 decay over *duration*: amplitude damping with
    ``gamma = 1 - exp(-t/T1)``, then the pure dephasing that brings the
    off-diagonal decay to ``exp(-t/T2)`` (requires ``T2 <= 2 T1``)."""
    gamma, lam = _thermal_rates(duration, t1, t2)
    return compose_channels(
        amplitude_damping_channel(gamma), phase_damping_channel(lam)
    )


def compose_channels(
    first: KrausChannel, second: KrausChannel
) -> KrausChannel:
    """The channel applying *first* then *second* (both same dimension)."""
    if first.dim != second.dim:
        raise SimulationError("cannot compose channels of different dims")
    return KrausChannel(
        tuple(b @ a for a in first.operators for b in second.operators)
    )


def from_kraus(channel: KrausChannel) -> Superoperator:
    """The superoperator ``sum_i K_i (x) conj(K_i)`` of a Kraus channel."""
    matrix = sum(np.kron(op, op.conj()) for op in channel.operators)
    return Superoperator(np.asarray(matrix, dtype=complex))


def embed(
    superop: Superoperator, position: int, num_qubits: int
) -> Superoperator:
    """A single-qubit map embedded at *position* of a register."""
    if superop.num_qubits != 1:
        raise SimulationError("embed expects a single-qubit map")
    return Superoperator(embedded_matrix(superop.matrix, position, num_qubits))


def channel_average_fidelity(
    u_target: np.ndarray, kraus_operators: Sequence[np.ndarray]
) -> float:
    """Average gate fidelity of a noisy channel against a unitary target.

    Each Kraus operator includes the intended unitary. The entanglement
    fidelity is ``F_e = sum_i |Tr(U^dag K_i)|^2 / d^2``, and the average
    fidelity ``(d F_e + 1) / (d + 1)`` (Horodecki–Nielsen).
    """
    u_target = np.asarray(u_target)
    d = u_target.shape[0]
    fid_e = 0.0
    u_dag = u_target.conj().T
    for kraus in kraus_operators:
        fid_e += abs(np.trace(u_dag @ np.asarray(kraus))) ** 2
    fid_e /= d**2
    return float((d * fid_e + 1) / (d + 1))


# ----------------------------------------------------------------------
# A density matrix that applies gates and Kraus channels
# ----------------------------------------------------------------------
class ReferenceDensityMatrix(DensityMatrix):
    """The device's density matrix, plus per-gate and per-Kraus updates."""

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` copy of the state."""
        dim = 2**self.num_qubits
        return self._tensor.reshape(dim, dim).copy()

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        rho = self.matrix
        return float(np.real(np.trace(rho @ rho)))

    def apply_unitary(
        self, matrix: np.ndarray, qubits: Tuple[int, ...]
    ) -> None:
        """Apply ``rho -> U rho U^dag`` on the given qubits."""
        matrix = np.asarray(matrix, dtype=complex)
        self._apply_left(matrix, tuple(qubits))
        self._apply_left(
            matrix.conj(), tuple(q + self.num_qubits for q in qubits)
        )

    def apply_gate(self, gate: Gate) -> None:
        if not gate.is_unitary:
            raise SimulationError(f"cannot apply non-unitary {gate.name!r}")
        self.apply_unitary(gate.matrix(), gate.qubits)

    def apply_channel(
        self, channel: KrausChannel, qubits: Tuple[int, ...]
    ) -> None:
        """Apply a Kraus channel to the given qubits, operator by operator."""
        if channel.num_qubits != len(qubits):
            raise SimulationError(
                f"channel acts on {channel.num_qubits} qubits, "
                f"given {len(qubits)}"
            )
        original = self._tensor
        accumulated = None
        for op in channel.operators:
            self._tensor = original
            self.apply_unitary(op, qubits)
            accumulated = (
                self._tensor if accumulated is None
                else accumulated + self._tensor
            )
        self._tensor = accumulated


def _readout(
    state: DensityMatrix,
    measured: Tuple[int, ...],
    readout_errors: Optional[Sequence[Optional[ReadoutError]]],
) -> Dict[str, float]:
    """Measured marginal, readout confusion and the ``p > 1e-14`` filter."""
    measured = measured or tuple(range(state.num_qubits))
    probs = state.probabilities(measured)
    if readout_errors is not None:
        probs = _apply_readout_confusion(probs, measured, readout_errors)
    width = len(measured)
    return {
        format(i, f"0{width}b"): float(p)
        for i, p in enumerate(probs)
        if p > 1e-14
    }


class DensityMatrixSimulator:
    """Evolve a circuit gate by gate, each followed by its noise.

    ``noise_callback(gate)`` returns the ``(KrausChannel, qubits)``
    pairs to apply after *gate*; without one the evolution is ideal.
    """

    def __init__(self, noise_callback=None) -> None:
        self.noise_callback = noise_callback

    def run(self, circuit: QuantumCircuit) -> ReferenceDensityMatrix:
        """Evolve |0..0><0..0| through the circuit's unitary part."""
        state = ReferenceDensityMatrix(circuit.num_qubits)
        for gate in circuit:
            if not gate.is_unitary:
                continue
            state.apply_gate(gate)
            if self.noise_callback is not None:
                for channel, qubits in self.noise_callback(gate):
                    state.apply_channel(channel, tuple(qubits))
        return state

    def distribution(
        self,
        circuit: QuantumCircuit,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]] = None,
    ) -> Dict[str, float]:
        """Exact output distribution over the measured qubits (all
        qubits if none is measured); ``readout_errors`` is indexed by
        qubit, ``None`` entries read out ideally."""
        return _readout(
            self.run(circuit), circuit.measured_qubits(), readout_errors
        )


# ----------------------------------------------------------------------
# The device's circuit, compacted and marked
# ----------------------------------------------------------------------
def _used_qubits(circuit: QuantumCircuit) -> List[int]:
    return sorted({q for gate in circuit for q in gate.qubits})


def _compact_circuit(
    circuit: QuantumCircuit, used: List[int]
) -> QuantumCircuit:
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
    """Insert ``idle(duration)`` gates per moment on untouched wires."""
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


def _prepared(device, circuit: QuantumCircuit):
    """The compact (and, with idle noise, marked) circuit, its physical
    qubits and their readout errors."""
    device._validate(circuit)
    used = _used_qubits(circuit)
    compact = _compact_circuit(circuit, used)
    if device.idle_noise:
        compact = _with_idle_markers(device, compact)
    readout = [device.qubit_params[phys].readout_error() for phys in used]
    return compact, used, readout


def _crosstalk_unitary(zeta: float) -> np.ndarray:
    """``exp(-i zeta ZZ / 2)``."""
    return np.diag(np.exp(-1j * (zeta / 2.0) * np.array([1, -1, -1, 1])))


def _crosstalk_pairs(
    device, pulsed: Tuple[int, ...], phys_of: Dict[int, int]
) -> List[Tuple[int, int]]:
    """``(pulsed, spectator)`` local pairs: each in-register topology
    neighbour of a pulsed qubit that is not itself pulsed."""
    local_of = {phys: local for local, phys in phys_of.items()}
    pairs = []
    for local_qubit in pulsed:
        for neighbour in device.topology.neighbors(phys_of[local_qubit]):
            spectator = local_of.get(neighbour)
            if spectator is not None and spectator not in pulsed:
                pairs.append((local_qubit, spectator))
    return pairs


# ----------------------------------------------------------------------
# The Kraus path
# ----------------------------------------------------------------------
def _thermal_channel(device, phys: int, duration_us: float) -> KrausChannel:
    params = device.qubit_params[phys]
    t1 = params.t1_us.current
    return thermal_relaxation_channel(
        duration_us, t1, min(params.t2_us.current, 2 * t1)
    )


def _idle_noise(device, gate: Gate, phys_of: Dict[int, int]):
    duration_us = gate.params[0] / _NS_PER_US
    if duration_us <= 0:
        return []
    return [
        (_thermal_channel(device, phys_of[gate.qubits[0]], duration_us),
         gate.qubits)
    ]


def _single_qubit_noise(device, gate: Gate, phys_of: Dict[int, int]):
    phys = phys_of[gate.qubits[0]]
    params = device.qubit_params[phys]
    ops = []
    over = params.rx_over_rotation.current
    if abs(over) > 1e-12:
        ops.append(
            (unitary_channel(single_qubit_coherent_error(over)), gate.qubits)
        )
    depol = params.rx_depolarizing.current
    if depol > 0:
        ops.append((depolarizing_channel(depol), gate.qubits))
    ops.append(
        (_thermal_channel(device, phys, params.rx_duration_ns / _NS_PER_US),
         gate.qubits)
    )
    return ops


def _two_qubit_noise(device, gate: Gate, phys_of: Dict[int, int]):
    phys_pair = (phys_of[gate.qubits[0]], phys_of[gate.qubits[1]])
    params = device.gate_params[(make_link(*phys_pair), gate.name)]
    ops = []
    over = params.over_rotation.current
    zz = params.zz_error.current
    if abs(over) > 1e-12 or abs(zz) > 1e-12:
        ops.append(
            (unitary_channel(coherent_error_unitary(gate.name, over, zz)),
             gate.qubits)
        )
    depol = params.depolarizing.current
    if depol > 0:
        ops.append((two_qubit_depolarizing_channel(depol), gate.qubits))
    duration_us = params.duration_ns / _NS_PER_US
    for local_qubit, phys in zip(gate.qubits, phys_pair):
        ops.append(
            (_thermal_channel(device, phys, duration_us), (local_qubit,))
        )
    if device.crosstalk_zz:
        crosstalk = unitary_channel(_crosstalk_unitary(device.crosstalk_zz))
        ops.extend(
            (crosstalk, pair)
            for pair in _crosstalk_pairs(device, gate.qubits, phys_of)
        )
    return ops


def _kraus_noise(device, used: List[int]):
    """The noise callback of *device* on the compact register of the
    physical qubits *used*, at its current parameter values: ``rz`` is
    a noiseless frame update, an ``idle`` marker relaxes its wire, an
    ``rx`` pulse and an entangling pulse get their coherent error,
    depolarizing and relaxation, and a pulse's spectators their ZZ."""
    phys_of = dict(enumerate(used))

    def callback(gate: Gate):
        if gate.name == "rz":
            return []
        if gate.name == "idle":
            return _idle_noise(device, gate, phys_of)
        if gate.num_qubits == 1:
            return _single_qubit_noise(device, gate, phys_of)
        if gate.num_qubits == 2:
            return _two_qubit_noise(device, gate, phys_of)
        return []

    return callback


def _kraus_evolve(device, compact, used, readout) -> Dict[str, float]:
    simulator = DensityMatrixSimulator(_kraus_noise(device, used))
    return simulator.distribution(compact, readout_errors=readout)


def kraus_distribution(device, circuit: QuantumCircuit) -> Dict[str, float]:
    """``device.noisy_distribution(circuit)``, through the Kraus path."""
    return _kraus_evolve(device, *_prepared(device, circuit))


def use_kraus_oracle(device):
    """Make *device* compute every exact distribution on the Kraus path.

    Its ``run`` then samples, and its ``noisy_distribution`` returns,
    the oracle's distribution of each prepared executable's compact
    instructions (idle markers included), while preparation, the clock
    and the log stay the device's own. Returns *device*.
    """

    def exact_distribution(executable) -> Dict[str, float]:
        used = list(executable.qubits)
        compact = QuantumCircuit(
            len(used), [Gate(*item) for item in executable.instructions]
        )
        readout = [device.qubit_params[phys].readout_error() for phys in used]
        return _kraus_evolve(device, compact, used, readout)

    device._exact_distribution = exact_distribution
    return device


# ----------------------------------------------------------------------
# The per-gate path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LoweredOp:
    superop: Superoperator
    qubits: Tuple[int, ...]


def _fused_gate_compiler(device, used: List[int]):
    """Each compact gate's fused channels, built from scratch at the
    device's current values: ``N (U x conj(U))`` per gate, the
    relaxation alone per idle marker, and the spectator couplings after
    each entangling pulse."""
    phys_of = dict(enumerate(used))
    values = device.drift.current
    layout = device.noise_layout

    def compiler(gate: Gate):
        if gate.name == "idle":
            duration_us = gate.params[0] / _NS_PER_US
            if duration_us <= 0:
                return ()
            idle = layout._fused_idle(
                phys_of[gate.qubits[0]], duration_us, values
            )
            return ((idle, gate.qubits),)
        superop = Superoperator.from_unitary(gate.matrix())
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
                _crosstalk_unitary(device.crosstalk_zz)
            )
            operations.extend(
                (crosstalk, spectator_pair)
                for spectator_pair in _crosstalk_pairs(
                    device, gate.qubits, phys_of
                )
            )
        return tuple(operations)

    return compiler


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
        superop = pending.superop.then(embed(nxt.superop, position, 2))
        qubits = pending.qubits
    elif (
        len(pending.qubits) == 1
        and len(nxt.qubits) == 2
        and pending.qubits[0] in nxt.qubits
    ):
        position = nxt.qubits.index(pending.qubits[0])
        superop = embed(pending.superop, position, 2).then(nxt.superop)
        qubits = nxt.qubits
    else:
        return None
    return _LoweredOp(superop, qubits)


def _greedy_fusion(stream: List[_LoweredOp]) -> List[_LoweredOp]:
    """Fuse each op into the pending block where the supports allow."""
    fused: List[_LoweredOp] = []
    for op in stream:
        if fused:
            merged = _try_fuse(fused[-1], op)
            if merged is not None:
                fused[-1] = merged
                continue
        fused.append(op)
    return fused


def per_gate_distribution(device, circuit: QuantumCircuit) -> Dict[str, float]:
    """``device.noisy_distribution(circuit)``, through the per-gate path."""
    compact, used, readout = _prepared(device, circuit)
    compiler = _fused_gate_compiler(device, used)
    stream = [
        _LoweredOp(superop, tuple(qubits))
        for gate in compact
        if gate.is_unitary
        for superop, qubits in compiler(gate)
    ]
    state = DensityMatrix(compact.num_qubits)
    for op in _greedy_fusion(stream):
        state.apply_superoperator(op.superop, op.qubits)
    return _readout(state, compact.measured_qubits(), readout)


# ----------------------------------------------------------------------
# Shot tally
# ----------------------------------------------------------------------
def per_shot_counts(
    distribution: Dict[str, float], shots: int, rng: np.random.Generator
) -> Counts:
    """``sample_distribution`` with the draws tallied one shot at a time:
    the same ``rng.choice`` call, keys inserted in order of first draw."""
    keys = sorted(distribution)
    probs = np.array([max(0.0, distribution[k]) for k in keys], dtype=float)
    probs /= probs.sum()
    counts: Counts = {}
    for outcome in rng.choice(len(keys), size=shots, p=probs):
        key = keys[int(outcome)]
        counts[key] = counts.get(key, 0) + 1
    return counts
