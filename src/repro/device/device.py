"""The simulated Rigetti Aspen device: executor, clock, and drift.

This is the hardware substitute documented in DESIGN.md §2. It accepts
*native* circuits addressed to physical qubit ids, applies per-link,
per-gate, per-pulse noise (coherent over-rotation + parasitic ZZ +
depolarizing + T1/T2 + readout confusion), returns shot counts, and
advances a simulated wall clock so every noise parameter drifts between
runs exactly like the paper's Aspen machines drift between (and within)
calibration windows.

Only the qubits a circuit touches are simulated (noise is local), so a
38-qubit device runs 2-5 qubit benchmarks through the exact
density-matrix backend.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import circuit_moments
from ..circuit.gates import Gate
from ..exceptions import DeviceError
from ..sim.channel_cache import ChannelCache
from ..sim.channels import (
    KrausChannel,
    Superoperator,
    tensor_maps,
    thermal_relaxation_channel,
    thermal_superoperator,
    two_qubit_depolarizing_channel,
    depolarizing_channel,
    unitary_channel,
)
from ..sim.density_matrix import DensityMatrixSimulator
from ..sim.sampler import Counts, sample_distribution
from ..sim.sim_cache import SimulationCache
from .drift import DriftState
from .native_gates import (
    DEFAULT_PULSE_DURATIONS_NS,
    NativeGateSet,
    RIGETTI_NATIVE_GATES,
)
from .noise_parameters import (
    QubitNoiseParameters,
    TwoQubitGateNoiseParameters,
    coherent_error_unitary,
    single_qubit_coherent_error,
)
from .topology import Link, Topology, make_link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.executor import BatchExecutor

__all__ = ["RigettiAspenDevice", "ExecutionRecord"]

#: Per-shot overhead (active reset + binning), microseconds.
_SHOT_OVERHEAD_US = 10.0
#: Fixed per-job overhead (load, arm, readout pipeline), microseconds.
_JOB_OVERHEAD_US = 50_000.0

_NS_PER_US = 1000.0


@dataclass(frozen=True)
class ExecutionRecord:
    """Audit entry for one device job, kept for experiment reporting.

    Attributes:
        circuit_name: Name of the executed circuit (candidates carry
            their probe suffix, so logs identify which sequence ran).
        shots: Shots sampled.
        started_at_us: Device clock when the job started.
        duration_us: Simulated wall time the job occupied the device.
        qubits: Physical qubits the job touched.
        seed: Sampling seed the submitter supplied (``None`` means the
            device's own stream was used) — lets the audit trail line up
            with executor job records for exact replay.
        job_id: Executor-assigned job identifier ("" for direct runs).
        tag: Workload phase ("probe", "final", "calibration", ...).
    """

    circuit_name: str
    shots: int
    started_at_us: float
    duration_us: float
    qubits: Tuple[int, ...]
    seed: Optional[int] = None
    job_id: str = ""
    tag: str = ""


class RigettiAspenDevice:
    """A simulated multi-native-gate superconducting device.

    Args:
        topology: Active qubits and links.
        qubit_params: Physics per physical qubit (all active qubits
            required).
        gate_params: Physics per (link, native gate name). A missing
            entry means that link does not support that native gate —
            real Aspen chips have such links (paper Section III-A).
            The device copies both maps' drift slots into its own
            :attr:`drift` state (qubits, then gates, each in insertion
            order — the advance order) and exposes read-only maps of
            records over it; the records passed in are left untouched.
        native_gates: The instruction set accepted by :meth:`run`.
        seed: Seed for the device's internal randomness (drift and
            default shot sampling).
        idle_noise: Model T1/T2 decay on qubits that sit idle while
            other qubits are gated (moment-scheduled). Off by default:
            the paper's mechanisms are two-qubit gate errors; idle decay
            is the ADAPT paper's territory and is provided as an
            extension (see ``tests/test_idle_noise.py``).
        crosstalk_zz: Coherent ZZ phase (radians per entangling pulse)
            accumulated between each pulsed qubit and its *spectator*
            topology neighbours inside the simulated register — the
            frequency-crowding crosstalk the paper cites as a motivation
            for richer native gate sets (Section II-B). Extension; 0
            disables it (default).
        channel_cache: Memoize noise-channel construction and fuse each
            gate's ideal unitary plus its whole noise tail into one
            cached superoperator (applied as a single contraction). The
            cache is keyed on the current noise-parameter values and
            cleared whenever :meth:`advance_time` drifts them (tracked
            by :attr:`drift_epoch`), so it is exact. On by default;
            disable to run the reference per-Kraus-operator path.
            With the channel cache the device also builds its
            :class:`~repro.sim.sim_cache.SimulationCache` (lowering plus
            layer fusion, and the optional cross-request dedup store);
            setting :attr:`sim_cache` to ``None`` on a built device runs
            fused per-gate operators without layer fusion.
    """

    def __init__(
        self,
        topology: Topology,
        qubit_params: Dict[int, QubitNoiseParameters],
        gate_params: Dict[Tuple[Link, str], TwoQubitGateNoiseParameters],
        native_gates: NativeGateSet = RIGETTI_NATIVE_GATES,
        seed: int = 0,
        idle_noise: bool = False,
        crosstalk_zz: float = 0.0,
        channel_cache: bool = True,
    ) -> None:
        missing = [q for q in topology.qubits if q not in qubit_params]
        if missing:
            raise DeviceError(f"missing qubit parameters for {missing}")
        for (link, gate_name) in gate_params:
            if link != make_link(*link):
                raise DeviceError(f"gate_params link {link} not canonical")
            if gate_name not in native_gates.two_qubit:
                raise DeviceError(f"unknown native gate {gate_name!r}")
        self.topology = topology
        self.native_gates = native_gates
        self._idle_noise = bool(idle_noise)
        self._crosstalk_zz = float(crosstalk_zz)
        records = [*qubit_params.values(), *gate_params.values()]
        #: Every drifting value, in advance order: the device's own copy
        #: of the records' slots, which its records then read.
        self.drift = DriftState.gather(
            [(r.drift, r.offset, len(r.FIELDS)) for r in records]
        )
        self._bind_records(qubit_params, gate_params)
        self.clock_us = 0.0
        self.execution_log: List[ExecutionRecord] = []
        #: Counts how many times drift has moved the noise parameters;
        #: the channel cache is valid only within one epoch.
        self.drift_epoch = 0
        self.channel_cache: Optional[ChannelCache] = (
            ChannelCache() if channel_cache else None
        )
        self.sim_cache: Optional[SimulationCache] = (
            SimulationCache() if channel_cache else None
        )
        self._drift_rng = np.random.default_rng(seed)
        self._sample_rng = np.random.default_rng(seed + 1)
        self._static_digest = self._static_part()
        #: The sequential executor every caller shares for this device,
        #: created by :func:`repro.exec.get_executor` on first use.
        self.shared_executor: Optional["BatchExecutor"] = None

    def _bind_records(
        self,
        qubit_params: Mapping[int, QubitNoiseParameters],
        gate_params: Mapping[Tuple[Link, str], TwoQubitGateNoiseParameters],
    ) -> None:
        """Read-only maps of records over :attr:`drift`, laid out in
        advance order (qubits, then gates, each in insertion order)."""
        offset = 0
        bound = []
        for records in (qubit_params, gate_params):
            views = {}
            for key, record in records.items():
                views[key] = record.at(self.drift, offset)
                offset += len(record.FIELDS)
            bound.append(MappingProxyType(views))
        self.qubit_params, self.gate_params = bound

    def clone(self) -> "RigettiAspenDevice":
        """An independent device in exactly this device's state.

        Copies the drift arrays, the clock, :attr:`drift_epoch` and the
        drift and sampling generators' states. The clone starts with an
        empty channel cache at its epoch, a simulation cache with no
        store attached, an empty execution log and no shared executor,
        so it runs every job exactly as this device would. Topology,
        native gate set and the static fingerprint digest are immutable
        and shared.
        """
        twin = copy.copy(self)
        twin.drift = self.drift.clone()
        twin._bind_records(self.qubit_params, self.gate_params)
        twin.execution_log = []
        if self.channel_cache is not None:
            twin.channel_cache = ChannelCache()
            twin.channel_cache.epoch = self.drift_epoch
        if self.sim_cache is not None:
            twin.sim_cache = SimulationCache()
        twin._drift_rng = copy.deepcopy(self._drift_rng)
        twin._sample_rng = copy.deepcopy(self._sample_rng)
        twin.shared_executor = None
        return twin

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.topology.name

    @property
    def idle_noise(self) -> bool:
        return self._idle_noise

    @property
    def crosstalk_zz(self) -> float:
        return self._crosstalk_zz

    @property
    def sample_rng(self) -> np.random.Generator:
        """The device's own shot-sampling stream.

        This is the generator an unseeded ``run`` call draws from, so a
        caller that samples a :meth:`noisy_distribution` itself must
        consume it for unseeded draws to match a direct unseeded run.
        """
        return self._sample_rng

    def supported_gates(self, qubit_a: int, qubit_b: int) -> Tuple[str, ...]:
        """Native two-qubit gates available on a link (canonical order)."""
        link = make_link(qubit_a, qubit_b)
        return tuple(
            g
            for g in self.native_gates.two_qubit
            if (link, g) in self.gate_params
        )

    def links_supporting(self, gate_name: str) -> List[Link]:
        return sorted(
            link for (link, g) in self.gate_params if g == gate_name
        )

    # ------------------------------------------------------------------
    # Time and drift
    # ------------------------------------------------------------------
    def advance_time(self, dt_us: float) -> None:
        """Advance the wall clock, drifting every noise parameter.

        Every nonzero advance bumps :attr:`drift_epoch` and invalidates
        the channel cache: the cached operators encode the pre-drift
        parameter values and must be rebuilt from the new ones.
        """
        if dt_us < 0:
            raise DeviceError("cannot advance time backwards")
        if dt_us == 0:
            return
        self.clock_us += dt_us
        self.drift.advance(dt_us, self._drift_rng)
        self.drift_epoch += 1
        if self.channel_cache is not None:
            self.channel_cache.invalidate(self.drift_epoch)

    # ------------------------------------------------------------------
    # Parameter-state export (the cross-request dedup key)
    # ------------------------------------------------------------------
    def parameter_state(self) -> Dict[Tuple, float]:
        """Every drifting parameter's raw process value, flat-keyed.

        Keys are stable across devices built from the same construction
        (``("q", qubit, i)`` for the i-th drifting value of a qubit,
        ``("g", link, gate, i)`` for a two-qubit gate). Values are the
        *raw* OU process values (pre-clip), so two devices with equal
        states read bit-identical ``current`` values.
        """
        values = self.drift.value.tolist()
        state: Dict[Tuple, float] = {}
        for qubit in sorted(self.qubit_params):
            offset = self.qubit_params[qubit].offset
            for index in range(len(QubitNoiseParameters.FIELDS)):
                state[("q", qubit, index)] = values[offset + index]
        for key in sorted(self.gate_params):
            link, gate_name = key
            offset = self.gate_params[key].offset
            for index in range(len(TwoQubitGateNoiseParameters.FIELDS)):
                state[("g", link, gate_name, index)] = values[offset + index]
        return state

    def parameter_fingerprint(self) -> bytes:
        """A digest of everything that determines this device's physics.

        Two devices with equal fingerprints produce bit-identical exact
        output distributions for the same circuit. This is the
        cross-request probe-dedup key — a shared distribution store may
        only serve one request's cached distribution to another when
        their devices' fingerprints match.

        The digest is blake2b over a static part (topology name, physics
        flags, parameter keys and pulse durations — all immutable, so it
        is computed once at construction), the drift epoch, and the bytes
        of the clipped value array the physics reads
        (:attr:`~repro.device.drift.DriftState.observed`): a few
        microseconds per call.
        """
        digest = hashlib.blake2b(self._static_digest, digest_size=16)
        digest.update(self.drift_epoch.to_bytes(8, "little"))
        digest.update(self.drift.observed.tobytes())
        return digest.digest()

    def _static_part(self) -> bytes:
        layout = (
            self.name,
            self.idle_noise,
            self.crosstalk_zz,
            [(q, p.rx_duration_ns) for q, p in self.qubit_params.items()],
            [(k, p.duration_ns) for k, p in self.gate_params.items()],
        )
        return hashlib.blake2b(
            repr(layout).encode(), digest_size=16
        ).digest()

    def circuit_duration_us(self, circuit: QuantumCircuit) -> float:
        """Critical-path duration of one shot of a native circuit."""
        total_ns = 0.0
        for moment in circuit_moments(circuit):
            total_ns += max(
                (self._gate_duration_ns(gate) for gate in moment.gates),
                default=0.0,
            )
        return total_ns / _NS_PER_US

    def _gate_duration_ns(self, gate: Gate) -> float:
        if gate.is_barrier:
            return 0.0
        if gate.is_measurement:
            return DEFAULT_PULSE_DURATIONS_NS["measure"]
        if gate.num_qubits == 2:
            link = make_link(*gate.qubits)
            params = self.gate_params.get((link, gate.name))
            if params is not None:
                return params.duration_ns
            return DEFAULT_PULSE_DURATIONS_NS.get(gate.name, 100.0)
        if gate.name == "rx":
            return self.qubit_params[gate.qubits[0]].rx_duration_ns
        return DEFAULT_PULSE_DURATIONS_NS.get(gate.name, 0.0)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[int] = None,
        job_id: str = "",
        tag: str = "",
    ) -> Counts:
        """Execute a native circuit on physical qubits; returns counts.

        The circuit must address active physical qubit ids, use only the
        device's native gate set, place two-qubit gates on active links
        that support them, and (like real hardware) explicitly measure
        the qubits it wants read out.

        Each call advances the device clock by the job's wall time, so
        back-to-back runs observe drifted noise — this is what makes the
        ANGEL probing loop live in the same noise environment as the
        final program execution. ``job_id``/``tag`` are carried into the
        :class:`ExecutionRecord` so executor-submitted jobs line up with
        the device audit trail.
        """
        if shots < 1:
            raise DeviceError("shots must be positive")
        self._validate(circuit)
        used = self._used_qubits(circuit)
        compact, local_of = self._compact_circuit(circuit, used)
        if self.idle_noise:
            compact = self._with_idle_markers(compact)

        rng = (
            np.random.default_rng(seed)
            if seed is not None
            else self._sample_rng
        )
        counts = sample_distribution(
            self._exact_distribution(compact, used), shots, rng
        )
        self.log_execution(
            circuit, shots, seed=seed, job_id=job_id, tag=tag, qubits=used
        )
        return counts

    def log_execution(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[int] = None,
        job_id: str = "",
        tag: str = "",
        qubits: Optional[List[int]] = None,
    ) -> ExecutionRecord:
        """Account one executed job: audit record plus clock advance."""
        duration = (
            _JOB_OVERHEAD_US
            + shots * (self.circuit_duration_us(circuit) + _SHOT_OVERHEAD_US)
        )
        record = ExecutionRecord(
            circuit_name=circuit.name,
            shots=shots,
            started_at_us=self.clock_us,
            duration_us=duration,
            qubits=tuple(qubits if qubits is not None else self._used_qubits(circuit)),
            seed=seed,
            job_id=job_id,
            tag=tag,
        )
        self.execution_log.append(record)
        self.advance_time(duration)
        return record

    def _validate(self, circuit: QuantumCircuit) -> None:
        if not circuit.has_measurements:
            raise DeviceError(
                f"circuit {circuit.name!r} has no measurements; hardware "
                "returns only measured bits"
            )
        active = set(self.topology.qubits)
        for gate in circuit:
            if gate.is_barrier:
                continue
            for qubit in gate.qubits:
                if qubit not in active:
                    raise DeviceError(
                        f"{gate} uses inactive/unknown qubit {qubit}"
                    )
            if gate.is_measurement:
                continue
            if not self.native_gates.is_native(gate):
                raise DeviceError(
                    f"{gate} is not native to {self.native_gates.name}"
                )
            if gate.num_qubits == 2:
                link = make_link(*gate.qubits)
                if not self.topology.has_link(*link):
                    raise DeviceError(f"{gate} is not on a device link")
                if (link, gate.name) not in self.gate_params:
                    raise DeviceError(
                        f"link {link} does not support native gate "
                        f"{gate.name!r}"
                    )

    @staticmethod
    def _used_qubits(circuit: QuantumCircuit) -> List[int]:
        used: Set[int] = set()
        for gate in circuit:
            used.update(gate.qubits)
        return sorted(used)

    @staticmethod
    def _compact_circuit(
        circuit: QuantumCircuit, used: List[int]
    ) -> Tuple[QuantumCircuit, Dict[int, int]]:
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
        return compact, local_of

    def _with_idle_markers(self, compact: QuantumCircuit) -> QuantumCircuit:
        """Insert explicit ``idle`` gates per moment on untouched wires.

        Each moment lasts as long as its slowest instruction; every
        compact-register qubit not acted on in that moment receives an
        ``idle(duration)`` marker whose noise hook applies T1/T2 decay.
        """
        marked = QuantumCircuit(compact.num_qubits, name=compact.name)
        for moment in circuit_moments(compact):
            duration = max(
                (self._gate_duration_ns(g) for g in moment.gates),
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

    def _cached(self, key, factory):
        """Memoize a channel construction if the cache is enabled.

        Keys embed the drifting parameter *values* they were built from,
        so a hit is bit-identical to a fresh construction by design; the
        epoch invalidation in :meth:`advance_time` merely keeps the
        table from accumulating dead pre-drift entries.
        """
        if self.channel_cache is None:
            return factory()
        return self.channel_cache.get(key, factory)

    def _noise_callback_factory(self, used: List[int]):
        """Noise hook for the density-matrix simulator, in local indices."""
        phys_of = dict(enumerate(used))

        def callback(gate: Gate) -> List[Tuple[KrausChannel, Tuple[int, ...]]]:
            if gate.name == "rz":
                return []  # virtual frame update: noiseless, zero time
            if gate.name == "idle":
                return self._idle_noise(gate, phys_of)
            if gate.num_qubits == 1:
                return self._single_qubit_noise(gate, phys_of)
            if gate.num_qubits == 2:
                return self._two_qubit_noise(gate, phys_of)
            return []

        return callback

    def _operation_compiler_factory(self, used: List[int]):
        """Fused fast path: one cached superoperator per gate instance.

        Each instruction's ideal unitary and full noise tail (coherent
        error, depolarizing, both qubits' relaxation) collapse into a
        single superoperator, memoized per (gate, physical placement)
        until drift invalidates it. Returns ``None`` when the cache is
        disabled, falling back to the per-Kraus reference path.
        """
        if self.channel_cache is None:
            return None
        cache = self.channel_cache
        phys_of = dict(enumerate(used))

        def compiler(gate: Gate):
            if gate.name == "idle":
                phys = phys_of[gate.qubits[0]]
                duration_us = gate.params[0] / _NS_PER_US
                if duration_us <= 0:
                    return ()
                superop = cache.get(
                    ("fused-idle", phys, gate.params),
                    lambda: self._fused_idle(phys, duration_us),
                )
                return ((superop, gate.qubits),)
            if gate.num_qubits == 1:
                phys = phys_of[gate.qubits[0]]
                superop = cache.get(
                    ("fused-1q", gate.name, gate.params, phys),
                    lambda: self._fused_single(gate, phys),
                )
                return ((superop, gate.qubits),)
            if gate.num_qubits == 2:
                phys_pair = (
                    phys_of[gate.qubits[0]],
                    phys_of[gate.qubits[1]],
                )
                superop = cache.get(
                    ("fused-2q", gate.name, gate.params, phys_pair),
                    lambda: self._fused_two(gate, phys_pair),
                )
                operations = [(superop, gate.qubits)]
                if self.crosstalk_zz:
                    operations.extend(
                        self._crosstalk_superops(gate, phys_of)
                    )
                return tuple(operations)
            return None  # unknown arity: reference path decides

        return compiler

    def _relaxation_times(self, phys: int) -> Tuple[float, float]:
        """This qubit's current ``(T1, T2)``, with T2 clipped to ``2 T1``."""
        params = self.qubit_params[phys]
        t1 = params.t1_us.current
        return t1, min(params.t2_us.current, 2 * t1)

    def _thermal_channel(self, phys: int, duration_us: float) -> KrausChannel:
        """This qubit's relaxation over *duration_us*, at current values."""
        t1, t2 = self._relaxation_times(phys)
        return self._cached(
            ("thermal", duration_us, t1, t2),
            lambda: thermal_relaxation_channel(duration_us, t1, t2),
        )

    def _fused_idle(self, phys: int, duration_us: float) -> Superoperator:
        t1, t2 = self._relaxation_times(phys)
        return thermal_superoperator(duration_us, t1, t2)

    def _rx_noise(self, phys: int) -> Superoperator:
        """The noise map trailing every ``rx`` pulse on *phys*, now."""
        params = self.qubit_params[phys]
        over = params.rx_over_rotation.current
        return _noise_map(
            single_qubit_coherent_error(over if abs(over) > 1e-12 else 0.0),
            params.rx_depolarizing.current,
            self._fused_idle(phys, params.rx_duration_ns / _NS_PER_US),
        )

    def _pulse_noise(
        self, gate_name: str, phys_pair: Tuple[int, int]
    ) -> Superoperator:
        """The noise map trailing one entangling pulse, qubits in order."""
        params = self.gate_params[(make_link(*phys_pair), gate_name)]
        over = params.over_rotation.current
        zz = params.zz_error.current
        duration = params.duration_ns / _NS_PER_US
        return _noise_map(
            coherent_error_unitary(gate_name, over, zz)
            if abs(over) > 1e-12 or abs(zz) > 1e-12
            else np.eye(4),
            params.depolarizing.current,
            tensor_maps([self._fused_idle(q, duration) for q in phys_pair]),
        )

    def _fused_single(self, gate: Gate, phys: int) -> Superoperator:
        superop = Superoperator.from_unitary(gate.matrix(), gate.name)
        if gate.name == "rz":
            return superop  # virtual frame update: noiseless
        return superop.then(self._rx_noise(phys))

    def _fused_two(
        self, gate: Gate, phys_pair: Tuple[int, int]
    ) -> Superoperator:
        return Superoperator.from_unitary(gate.matrix(), gate.name).then(
            self._pulse_noise(gate.name, phys_pair)
        )

    def _idle_noise(
        self, gate: Gate, phys_of: Dict[int, int]
    ) -> List[Tuple[KrausChannel, Tuple[int, ...]]]:
        phys = phys_of[gate.qubits[0]]
        duration_us = gate.params[0] / _NS_PER_US
        if duration_us <= 0:
            return []
        return [(self._thermal_channel(phys, duration_us), gate.qubits)]

    def _single_qubit_noise(
        self, gate: Gate, phys_of: Dict[int, int]
    ) -> List[Tuple[KrausChannel, Tuple[int, ...]]]:
        phys = phys_of[gate.qubits[0]]
        params = self.qubit_params[phys]
        ops: List[Tuple[KrausChannel, Tuple[int, ...]]] = []
        over = params.rx_over_rotation.current
        if abs(over) > 1e-12:
            ops.append(
                (
                    self._cached(
                        ("rx_coherent", over),
                        lambda: unitary_channel(
                            single_qubit_coherent_error(over), "rx_coherent"
                        ),
                    ),
                    gate.qubits,
                )
            )
        depol = params.rx_depolarizing.current
        if depol > 0:
            ops.append(
                (
                    self._cached(
                        ("depol1", depol),
                        lambda: depolarizing_channel(depol),
                    ),
                    gate.qubits,
                )
            )
        ops.append(
            (
                self._thermal_channel(
                    phys, params.rx_duration_ns / _NS_PER_US
                ),
                gate.qubits,
            )
        )
        return ops

    def _two_qubit_noise(
        self, gate: Gate, phys_of: Dict[int, int]
    ) -> List[Tuple[KrausChannel, Tuple[int, ...]]]:
        phys_pair = (phys_of[gate.qubits[0]], phys_of[gate.qubits[1]])
        link = make_link(*phys_pair)
        params = self.gate_params[(link, gate.name)]
        ops: List[Tuple[KrausChannel, Tuple[int, ...]]] = []
        over = params.over_rotation.current
        zz = params.zz_error.current
        if abs(over) > 1e-12 or abs(zz) > 1e-12:
            ops.append(
                (
                    self._cached(
                        ("coherent2", gate.name, over, zz),
                        lambda: unitary_channel(
                            coherent_error_unitary(gate.name, over, zz),
                            f"{gate.name}_coherent",
                        ),
                    ),
                    gate.qubits,
                )
            )
        depol = params.depolarizing.current
        if depol > 0:
            ops.append(
                (
                    self._cached(
                        ("depol2", depol),
                        lambda: two_qubit_depolarizing_channel(depol),
                    ),
                    gate.qubits,
                )
            )
        duration_us = params.duration_ns / _NS_PER_US
        for local_qubit, phys in zip(gate.qubits, phys_pair):
            ops.append(
                (self._thermal_channel(phys, duration_us), (local_qubit,))
            )
        if self.crosstalk_zz:
            ops.extend(self._crosstalk_ops(gate, phys_of))
        return ops

    def _crosstalk_unitary(self) -> np.ndarray:
        """``exp(-i zeta ZZ / 2)`` for the device's spectator coupling."""
        return np.diag(
            np.exp(
                -1j
                * (self.crosstalk_zz / 2.0)
                * np.array([1.0, -1.0, -1.0, 1.0])
            )
        ).astype(complex)

    def _crosstalk_pairs(
        self, gate: Gate, phys_of: Dict[int, int]
    ) -> List[Tuple[int, int]]:
        """(pulsed, spectator) local-index pairs coupled during a pulse."""
        local_of = {phys: local for local, phys in phys_of.items()}
        pairs: List[Tuple[int, int]] = []
        pulsed_local = set(gate.qubits)
        for local_qubit in gate.qubits:
            phys = phys_of[local_qubit]
            for neighbour_phys in self.topology.neighbors(phys):
                spectator = local_of.get(neighbour_phys)
                if spectator is None or spectator in pulsed_local:
                    continue
                pairs.append((local_qubit, spectator))
        return pairs

    def _crosstalk_ops(
        self, gate: Gate, phys_of: Dict[int, int]
    ) -> List[Tuple[KrausChannel, Tuple[int, ...]]]:
        """Spectator ZZ crosstalk during an entangling pulse.

        Every in-register topology neighbour of a pulsed qubit (that is
        not itself part of the pulse) picks up ``exp(-i zeta ZZ / 2)``
        with the pulsed qubit — the always-on coupling that frequency
        crowding leaves behind.
        """
        channel = self._cached(
            ("xtalk-kraus",),
            lambda: unitary_channel(self._crosstalk_unitary(), "crosstalk_zz"),
        )
        return [
            (channel, pair) for pair in self._crosstalk_pairs(gate, phys_of)
        ]

    def _crosstalk_superops(
        self, gate: Gate, phys_of: Dict[int, int]
    ) -> List[Tuple[Superoperator, Tuple[int, ...]]]:
        superop = self._cached(
            ("xtalk-superop",),
            lambda: Superoperator.from_unitary(
                self._crosstalk_unitary(), "crosstalk_zz"
            ),
        )
        return [
            (superop, pair) for pair in self._crosstalk_pairs(gate, phys_of)
        ]

    def noisy_distribution(self, circuit: QuantumCircuit) -> Dict[str, float]:
        """Oracle: the exact noisy output distribution, right now.

        Unlike :meth:`run` this consumes no shots, does not advance the
        clock, and is not logged — it is the experimenter's ground-truth
        view used by characterization studies to separate physics from
        shot noise. Real users of the device cannot call this.
        """
        self._validate(circuit)
        used = self._used_qubits(circuit)
        compact, _ = self._compact_circuit(circuit, used)
        if self.idle_noise:
            compact = self._with_idle_markers(compact)
        return self._exact_distribution(compact, used)

    def _exact_distribution(
        self, compact: QuantumCircuit, used: List[int]
    ) -> Dict[str, float]:
        """Exact noisy distribution of a compacted circuit, at current
        parameter values.

        With :attr:`sim_cache` the circuit is lowered, fused and
        evolved there (or served from an attached dedup store, whose
        key includes the physical placement ``used``); without it the
        per-gate :class:`DensityMatrixSimulator` is the reference.
        """
        readout = [self.qubit_params[phys].readout_error() for phys in used]
        if self.sim_cache is not None:
            return self.sim_cache.distribution(
                compact,
                readout,
                operation_compiler=self._operation_compiler_factory(used),
                noise_callback=self._noise_callback_factory(used),
                placement=tuple(used),
            )
        simulator = DensityMatrixSimulator(
            self._noise_callback_factory(used),
            operation_compiler=self._operation_compiler_factory(used),
        )
        return simulator.distribution(compact, readout_errors=readout)

    # ------------------------------------------------------------------
    # Ground-truth fidelities (what an oracle — not the vendor — knows)
    # ------------------------------------------------------------------
    def true_pulse_fidelity(self, link: Link, gate_name: str) -> float:
        """Exact average gate fidelity of one entangling pulse, now.

        The pulse is its ideal unitary followed by the noise map the
        simulator fuses into it — the value a perfect, instantaneous
        randomized-benchmarking experiment would converge to. The
        calibration service adds staleness and estimation noise on top.
        """
        link = make_link(*link)
        if (link, gate_name) not in self.gate_params:
            raise DeviceError(f"link {link} lacks gate {gate_name!r}")
        return _average_fidelity(self._pulse_noise(gate_name, link))

    def true_rx_fidelity(self, qubit: int) -> float:
        """Exact average fidelity of one RX(pi/2) pulse on *qubit*, now."""
        return _average_fidelity(self._rx_noise(qubit))


def _noise_map(
    error: np.ndarray, depolarizing: float, relaxation: Superoperator
) -> Superoperator:
    """One pulse's noise ``N = T D (E x conj(E))``, applied after its ``U``.

    ``E`` is the coherent error, ``D`` the depolarizing map and ``T`` the
    relaxation of every pulsed qubit. The simulator fuses
    ``N (U x conj(U))``; the ground-truth fidelities read ``Re Tr(N)``.
    """
    noise = Superoperator.from_unitary(error, "coherent")
    if depolarizing > 0:
        noise = noise.depolarized(depolarizing)
    return noise.then(relaxation)


def _average_fidelity(noise: Superoperator) -> float:
    """Average fidelity of ``N U`` against ``U``: ``U`` cancels in the
    entanglement fidelity ``sum_k |Tr(U^dag N_k U)|^2 / d^2 = Re Tr(N) / d^2``.
    """
    dim = noise.dim
    entanglement = float(np.trace(noise.matrix).real) / (dim * dim)
    return (dim * entanglement + 1.0) / (dim + 1.0)
