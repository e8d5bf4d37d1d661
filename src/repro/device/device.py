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
import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import circuit_moments
from ..circuit.gates import BARRIER, MEASURE, Gate, gate_matrix
from ..exceptions import DeviceError
from ..sim.channel_cache import ChannelCache
from ..sim.circuit_compiler import Executable, circuit_digest, fusion_plan
from ..sim.channels import Superoperator, tensor_maps, thermal_superoperator
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

#: Executables a device and its clones keep, least recently used evicted
#: first. Sized for ``paper_eval``'s working set: about 230 distinct
#: circuits over 64 evaluations of one context.
_EXECUTABLE_MEMO_SIZE = 256
#: Distinct instructions and channel keys the memo shares between its
#: executables before it starts a fresh pool.
_SHARED_TUPLES = 16384


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

    Every exact distribution takes one path: each gate's ideal unitary
    and its whole noise tail are built as one superoperator, memoized in
    :attr:`channel_cache`, then folded along the circuit's prepared
    executable and evolved by :attr:`sim_cache`
    (:class:`~repro.sim.sim_cache.SimulationCache`, which also consults
    an attached cross-request dedup store). The channel cache holds the
    channels of the current noise-parameter values only: it is cleared
    whenever :meth:`advance_time` drifts them (tracked by
    :attr:`drift_epoch`) or an edit replaces them, so it is exact.

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
        #: Offsets and pulse durations every noise map reads through
        #: (immutable; clones share it).
        self.noise_layout = NoiseLayout(self.qubit_params, self.gate_params)
        self.clock_us = 0.0
        self.execution_log: List[ExecutionRecord] = []
        #: Counts how many times drift has moved the noise parameters;
        #: the channel cache is valid only within one epoch.
        self.drift_epoch = 0
        self.channel_cache = ChannelCache()
        self.channel_cache.values = self.drift.current
        self.sim_cache = SimulationCache()
        #: Each prepared circuit's :class:`Executable`, by content
        #: (structure only, so clones share it).
        self.executables = ExecutableMemo()
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
        native gate set, noise layout and the static fingerprint digest
        are immutable and shared, and so is the memo of prepared
        executables (:attr:`executables`), which depend on that
        structure alone.
        """
        twin = copy.copy(self)
        twin.drift = self.drift.clone()
        twin._bind_records(self.qubit_params, self.gate_params)
        twin.execution_log = []
        twin.channel_cache = ChannelCache()
        twin.channel_cache.epoch = self.drift_epoch
        twin.channel_cache.values = twin.drift.current
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
        self.channel_cache.invalidate(self.drift_epoch, self.drift.current)

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
    # Execution: prepare once per circuit, bind per job
    # ------------------------------------------------------------------
    def prepare(self, circuit: QuantumCircuit) -> Executable:
        """The circuit's :class:`Executable` on this device.

        Validation, compaction onto the touched qubits, the duration
        schedule (and the idle markers, with idle noise), the channel
        keys and the fusion plan depend only on the circuit's content
        and on this device's structure, which is immutable. So the
        executable is memoized by the circuit's content digest in
        :attr:`executables`, shared with every clone; the circuit's name
        is not part of it.

        Raises:
            DeviceError: On every call for a circuit this device cannot
                run (such circuits are never stored).
        """
        digest = circuit_digest(circuit)
        executable = self.executables.get(digest)
        if executable is None:
            executable = self.executables.put(
                digest, self._build_executable(circuit, digest)
            )
        return executable

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
        executable = self.prepare(circuit)
        rng = (
            np.random.default_rng(seed)
            if seed is not None
            else self._sample_rng
        )
        counts = sample_distribution(
            self._exact_distribution(executable), shots, rng
        )
        self._log(executable, circuit.name, shots, seed, job_id, tag)
        return counts

    def _log(
        self,
        executable: Executable,
        name: str,
        shots: int,
        seed: Optional[int],
        job_id: str,
        tag: str,
    ) -> None:
        """Account one executed job: audit record plus clock advance."""
        duration = (
            _JOB_OVERHEAD_US
            + shots * (executable.duration_us + _SHOT_OVERHEAD_US)
        )
        record = ExecutionRecord(
            circuit_name=name,
            shots=shots,
            started_at_us=self.clock_us,
            duration_us=duration,
            qubits=executable.qubits,
            seed=seed,
            job_id=job_id,
            tag=tag,
        )
        self.execution_log.append(record)
        self.advance_time(duration)

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

    def _build_executable(
        self, circuit: QuantumCircuit, digest: bytes
    ) -> Executable:
        """Validate, compact, schedule and fusion-plan *circuit*.

        Instructions land in ASAP moments as
        :func:`~repro.circuit.dag.circuit_moments` assigns them
        (barriers align every wire); each moment lasts as long as its
        slowest instruction, and the moments add up to one shot's
        duration exactly as :meth:`circuit_duration_us` sums them. With
        idle noise, the instructions are re-emitted moment by moment
        with an ``idle(duration)`` marker on every compact qubit the
        moment leaves untouched, whose channel applies T1/T2 decay.
        """
        self._validate(circuit)
        used = self._used_qubits(circuit)
        local_of = {phys: local for local, phys in enumerate(used)}
        frontier = [0] * len(used)
        instructions = []
        moments: Dict[int, list] = {}
        moment_ns: Dict[int, float] = {}
        for gate in circuit:
            if gate.is_barrier:
                instructions.append((BARRIER, (), ()))
                frontier = [max(frontier)] * len(used)
                continue
            local = tuple(local_of[q] for q in gate.qubits)
            instruction = (gate.name, local, gate.params)
            instructions.append(instruction)
            level = max(frontier[q] for q in local)
            for qubit in local:
                frontier[qubit] = level + 1
            duration = self._gate_duration_ns(gate)
            moments.setdefault(level, []).append(instruction)
            moment_ns[level] = max(moment_ns.get(level, duration), duration)
        total_ns = 0.0
        for level in sorted(moment_ns):
            total_ns += moment_ns[level]
        if self.idle_noise:
            instructions = []
            for level in sorted(moments):
                items = moments[level]
                instructions.extend(items)
                duration = moment_ns[level]
                if duration <= 0:
                    continue
                busy = {q for _, qubits, _ in items for q in qubits}
                instructions.extend(
                    ("idle", (qubit,), (duration,))
                    for qubit in range(len(used))
                    if qubit not in busy
                )
        keys: Dict[Hashable, int] = {}
        stream = []
        phys_of = dict(enumerate(used))
        for name, local, params in instructions:
            if name == MEASURE or name == BARRIER:
                continue  # measures and barriers do not evolve the state
            key = self._channel_key(
                name, params, tuple(used[q] for q in local)
            )
            if key is None:
                continue
            stream.append((keys.setdefault(key, len(keys)), local))
            if len(local) == 2 and self.crosstalk_zz:
                crosstalk = keys.setdefault(("xtalk-superop",), len(keys))
                stream.extend(
                    (crosstalk, pair)
                    for pair in self._crosstalk_pairs(local, phys_of)
                )
        return Executable(
            digest=digest,
            qubits=tuple(used),
            instructions=tuple(instructions),
            measured=tuple(
                dict.fromkeys(
                    local[0]
                    for name, local, _ in instructions
                    if name == MEASURE
                )
            ),
            duration_us=total_ns / _NS_PER_US,
            channel_keys=tuple(keys),
            blocks=fusion_plan(stream),
        )

    @staticmethod
    def _channel_key(
        name: str, params: Tuple[float, ...], phys: Tuple[int, ...]
    ) -> Optional[Hashable]:
        """The channel-cache key of one unitary instruction on physical
        qubits *phys*; ``None`` for an idle marker of no duration."""
        if name == "idle":
            return ("fused-idle", phys[0], params) if params[0] > 0 else None
        if len(phys) == 1:
            return ("fused-1q", name, params, phys[0])
        return ("fused-2q", name, params, phys)

    def _channel(self, key: Hashable) -> Superoperator:
        """The fused per-gate channel behind an executable's channel key,
        at current values, through the channel cache."""
        return self.channel_cache.get(key, lambda: self._build_channel(key))

    def _build_channel(self, key: Hashable) -> Superoperator:
        """Build one fused per-gate channel: the gate's ideal unitary and
        its whole noise tail as one superoperator.

        Keys are ``("fused-1q", name, params, phys)``, ``("fused-2q",
        name, params, phys_pair)``, ``("fused-idle", phys, params)`` and
        ``("xtalk-superop",)``. They carry no parameter values, which is
        why the channel cache must only ever hold one state's channels.
        """
        kind = key[0]
        values = self.drift.current
        if kind == "fused-1q":
            _, name, params, phys = key
            superop = Superoperator.from_unitary(gate_matrix(name, *params))
            if name == "rz":
                return superop  # virtual frame update: noiseless
            return superop.then(self.noise_layout._rx_noise(phys, values))
        if kind == "fused-2q":
            _, name, params, phys_pair = key
            return Superoperator.from_unitary(gate_matrix(name, *params)).then(
                self.noise_layout._pulse_noise(name, phys_pair, values)
            )
        if kind == "fused-idle":
            _, phys, params = key
            return self._fused_idle(phys, params[0] / _NS_PER_US)
        if kind == "xtalk-superop":
            return Superoperator.from_unitary(self._crosstalk_unitary())
        raise DeviceError(f"unknown channel key {key!r}")

    def _fused_idle(self, phys: int, duration_us: float) -> Superoperator:
        return self.noise_layout._fused_idle(
            phys, duration_us, self.drift.current
        )

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
        self, pulsed: Tuple[int, ...], phys_of: Dict[int, int]
    ) -> List[Tuple[int, int]]:
        """(pulsed, spectator) local-index pairs coupled during a pulse
        on the *pulsed* local qubits."""
        local_of = {phys: local for local, phys in phys_of.items()}
        pairs: List[Tuple[int, int]] = []
        pulsed_local = set(pulsed)
        for local_qubit in pulsed:
            phys = phys_of[local_qubit]
            for neighbour_phys in self.topology.neighbors(phys):
                spectator = local_of.get(neighbour_phys)
                if spectator is None or spectator in pulsed_local:
                    continue
                pairs.append((local_qubit, spectator))
        return pairs

    def noisy_distribution(self, circuit: QuantumCircuit) -> Dict[str, float]:
        """Oracle: the exact noisy output distribution, right now.

        Unlike :meth:`run` this consumes no shots, does not advance the
        clock, and is not logged — it is the experimenter's ground-truth
        view used by characterization studies to separate physics from
        shot noise. Real users of the device cannot call this.
        """
        return self._exact_distribution(self.prepare(circuit))

    def _exact_distribution(self, executable: Executable) -> Dict[str, float]:
        """Exact noisy distribution of an executable, at current
        parameter values: its channels are built, folded along its plan
        and evolved by :attr:`sim_cache` (or the distribution is served
        from an attached dedup store), after the channel cache is
        cleared if the parameter values changed since it was filled.
        """
        readout = [
            self.qubit_params[phys].readout_error()
            for phys in executable.qubits
        ]
        cache = self.channel_cache
        if cache.values is not self.drift.current:
            cache.invalidate(self.drift_epoch, self.drift.current)
        return self.sim_cache.distribution(
            executable, readout, self._channel, self.parameter_fingerprint
        )

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
        return self.noise_layout.pulse_fidelity(
            link, gate_name, self.drift.current
        )

    def true_rx_fidelity(self, qubit: int) -> float:
        """Exact average fidelity of one RX(pi/2) pulse on *qubit*, now."""
        return self.noise_layout.rx_fidelity(qubit, self.drift.current)


#: Positions of the fields the noise maps read within a record's slots.
_T1, _T2, _RX_DEPOLARIZING, _RX_OVER_ROTATION = (
    QubitNoiseParameters.FIELDS.index(name)
    for name in ("t1_us", "t2_us", "rx_depolarizing", "rx_over_rotation")
)
_OVER_ROTATION, _ZZ_ERROR, _DEPOLARIZING = (
    TwoQubitGateNoiseParameters.FIELDS.index(name)
    for name in ("over_rotation", "zz_error", "depolarizing")
)


class NoiseLayout:
    """Where a device's noise parameters sit in its drift value vector.

    Holds each qubit's ``(offset, rx_duration_ns)`` and each (link,
    gate)'s ``(offset, duration_ns)`` — immutable structure that a
    device shares with its clones. Every pulse noise map and ground-truth
    fidelity is computed here from a *values* vector indexed by those
    offsets: the live :attr:`DriftState.current
    <repro.device.drift.DriftState.current>` when the simulator fuses a
    gate or the device reports a fidelity now, or the list a calibration
    sweep kept as its snapshot when a deferred record is first read.
    """

    __slots__ = ("_qubits", "_gates")

    def __init__(
        self,
        qubit_params: Mapping[int, QubitNoiseParameters],
        gate_params: Mapping[Tuple[Link, str], TwoQubitGateNoiseParameters],
    ) -> None:
        self._qubits = {
            qubit: (params.offset, params.rx_duration_ns)
            for qubit, params in qubit_params.items()
        }
        self._gates = {
            key: (params.offset, params.duration_ns)
            for key, params in gate_params.items()
        }

    def _relaxation_times(
        self, phys: int, values: Sequence[float]
    ) -> Tuple[float, float]:
        """This qubit's ``(T1, T2)``, with T2 clipped to ``2 T1``."""
        offset = self._qubits[phys][0]
        t1 = values[offset + _T1]
        return t1, min(values[offset + _T2], 2 * t1)

    def _fused_idle(
        self, phys: int, duration_us: float, values: Sequence[float]
    ) -> Superoperator:
        t1, t2 = self._relaxation_times(phys, values)
        return thermal_superoperator(duration_us, t1, t2)

    def _rx_noise(self, phys: int, values: Sequence[float]) -> Superoperator:
        """The noise map trailing every ``rx`` pulse on *phys*."""
        offset, duration_ns = self._qubits[phys]
        over = values[offset + _RX_OVER_ROTATION]
        return _noise_map(
            single_qubit_coherent_error(over if abs(over) > 1e-12 else 0.0),
            values[offset + _RX_DEPOLARIZING],
            self._fused_idle(phys, duration_ns / _NS_PER_US, values),
        )

    def _pulse_noise(
        self,
        gate_name: str,
        phys_pair: Tuple[int, int],
        values: Sequence[float],
    ) -> Superoperator:
        """The noise map trailing one entangling pulse, qubits in order."""
        offset, duration_ns = self._gates[(make_link(*phys_pair), gate_name)]
        over = values[offset + _OVER_ROTATION]
        zz = values[offset + _ZZ_ERROR]
        duration = duration_ns / _NS_PER_US
        return _noise_map(
            coherent_error_unitary(gate_name, over, zz)
            if abs(over) > 1e-12 or abs(zz) > 1e-12
            else np.eye(4),
            values[offset + _DEPOLARIZING],
            tensor_maps(
                [self._fused_idle(q, duration, values) for q in phys_pair]
            ),
        )

    def pulse_fidelity(
        self, link: Link, gate_name: str, values: Sequence[float]
    ) -> float:
        """Average gate fidelity of one entangling pulse at *values*."""
        link = make_link(*link)
        if (link, gate_name) not in self._gates:
            raise DeviceError(f"link {link} lacks gate {gate_name!r}")
        return _average_fidelity(self._pulse_noise(gate_name, link, values))

    def rx_fidelity(self, qubit: int, values: Sequence[float]) -> float:
        """Average fidelity of one RX(pi/2) pulse on *qubit* at *values*."""
        return _average_fidelity(self._rx_noise(qubit, values))


def _noise_map(
    error: np.ndarray, depolarizing: float, relaxation: Superoperator
) -> Superoperator:
    """One pulse's noise ``N = T D (E x conj(E))``, applied after its ``U``.

    ``E`` is the coherent error, ``D`` the depolarizing map and ``T`` the
    relaxation of every pulsed qubit. The simulator fuses
    ``N (U x conj(U))``; the ground-truth fidelities read ``Re Tr(N)``.
    """
    noise = Superoperator.from_unitary(error)
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


class ExecutableMemo:
    """A bounded, thread-safe map from circuit digest to executable.

    A device and its clones share one: an executable depends only on the
    circuit and on the device's structure, which clones share. The
    least recently used entry is evicted past ``max_entries``. Equal
    instructions and channel keys recur across circuits (every
    nativized CNOT repeats the same RZ/RX dressing), so stored
    executables share one copy of each. Worker threads stepping clones
    may both build a missing executable; the builds are equal and the
    first one stored is the one every caller gets.
    """

    __slots__ = ("_entries", "_lock", "_shared", "max_entries", "hits",
                 "misses", "evictions")

    def __init__(self, max_entries: int = _EXECUTABLE_MEMO_SIZE) -> None:
        self._entries: "OrderedDict[bytes, Executable]" = OrderedDict()
        self._lock = threading.Lock()
        self._shared: Dict[tuple, tuple] = {}
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: bytes) -> Optional[Executable]:
        with self._lock:
            executable = self._entries.get(digest)
            if executable is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return executable

    def put(self, digest: bytes, executable: Executable) -> Executable:
        """Store *executable* under *digest*; returns the stored one."""
        with self._lock:
            stored = self._entries.get(digest)
            if stored is not None:
                return stored
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            if len(self._shared) >= _SHARED_TUPLES:
                self._shared = {}
            share = self._shared.setdefault
            stored = self._entries[digest] = executable._replace(
                instructions=tuple(
                    [share(item, item) for item in executable.instructions]
                ),
                channel_keys=tuple(
                    [share(key, key) for key in executable.channel_keys]
                ),
            )
            return stored

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
