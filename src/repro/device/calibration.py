"""Vendor-style calibration: benchmarking protocols, cadence, staleness.

The paper's critique of noise-adaptive compilation rests on two properties
of real calibration data (Sections II-D.2 and III-B):

1. **It is an average.** Randomized-benchmarking-style protocols report
   the state-averaged gate fidelity, hiding the state-dependent structure
   of coherent errors.
2. **It goes stale.** Gates are re-benchmarked on different cadences
   (CPHASE least often on Aspen-11), so between refreshes the published
   number plateaus while the device drifts (Fig. 8).

:class:`CalibrationService` reproduces both: it periodically measures
per-link, per-gate fidelities — either analytically (ground-truth channel
fidelity plus estimation noise; fast) or by actually running a
mirror-benchmarking protocol on the device (shots, fits, the works) — and
timestamps the records. Consumers (the noise-adaptive baseline, ANGEL's
reference initialization) only ever see the possibly-stale records.

An analytic sweep does everything that moves state when it runs: one
estimation-noise draw per record (one ``standard_normal(n)`` call per
sweep), the timestamp, the cadence bookkeeping and the clock advance.
The ground truth waits: the sweep's records share one :class:`_Sweep`
holding the device's noise layout, the sweep's keys and its parameter
snapshot (the device's :attr:`~repro.device.drift.DriftState.current`
list, which advance and field edits replace rather than write into).
The first read of any of its records evaluates every fidelity of the
sweep in one batched :class:`~repro.device.device.NoiseLayout` call —
the values evaluating them at sweep time gives, bit for bit. Most
sweeps are overwritten by the next sweep of their gate before anyone
reads them, and a single-qubit sweep is rarely read at all.
"""

from __future__ import annotations

import copy
import math
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import curve_fit

from ..circuit.circuit import QuantumCircuit
from ..exceptions import CalibrationError, DeviceError
from ..exec import Job, get_executor
from ..obs import runtime as obs
from .device import RigettiAspenDevice
from .native_gates import NATIVE_TWO_QUBIT_GATES
from .topology import Link, make_link

__all__ = [
    "CalibrationRecord",
    "CalibrationData",
    "CalibrationService",
    "mirror_benchmark_fidelity",
]

#: Wall time one gate-family calibration sweep costs, microseconds.
_CALIBRATION_SWEEP_US = 5_000_000.0

#: Default refresh cadence per native gate, microseconds. CPHASE is
#: refreshed least often, as the paper reports for Aspen-11.
DEFAULT_REFRESH_PERIOD_US: Dict[str, float] = {
    "xy": 4 * 3_600e6,
    "cz": 4 * 3_600e6,
    "cphase": 24 * 3_600e6,
}


#: Published fidelities are clipped to ``[_FIDELITY_FLOOR, 1]``.
_FIDELITY_FLOOR = 0.25


class CalibrationRecord:
    """One published fidelity number and when it was measured.

    Records are immutable; equality, hashing, ``repr`` and copies read
    :attr:`value`. An analytic sweep publishes records whose value is
    computed on first read (see :class:`_DeferredRecord`); once read,
    they are plain records like these.
    """

    # Slots, and no class attribute named ``value``, keep reading a
    # resolved record a plain slot read, as cheap as a dataclass field.
    # ``_pending`` is _DeferredRecord's, declared here so that one can
    # turn into a plain record (a class change needs the same layout).
    __slots__ = ("value", "timestamp_us", "_pending")

    def __init__(self, value: float, timestamp_us: float) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "timestamp_us", timestamp_us)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, CalibrationRecord):
            return NotImplemented
        return (self.value, self.timestamp_us) == (
            other.value,
            other.timestamp_us,
        )

    def __hash__(self) -> int:
        return hash((self.value, self.timestamp_us))

    def __repr__(self) -> str:
        return (
            f"CalibrationRecord(value={self.value!r}, "
            f"timestamp_us={self.timestamp_us!r})"
        )

    def __reduce__(self):
        return CalibrationRecord, (self.value, self.timestamp_us)

    def age_us(self, now_us: float) -> float:
        return now_us - self.timestamp_us


class _Sweep:
    """One analytic sweep's ground truths, evaluated together.

    Holds ``evaluate`` — a batched fidelity method of the device's
    immutable :class:`~repro.device.device.NoiseLayout`, never the live
    device — with the sweep's keys and parameter snapshot.
    :meth:`fidelities` evaluates every key in one call on first use,
    stores the list, then drops the snapshot.

    Evaluation is deterministic and idempotent: it reads only the
    snapshot, which nothing writes. Threads that share a sweep (service
    workers reading records of a memoized chip day that their clones
    share) may each evaluate it; they store equal lists. The list is
    read before the snapshot and stored before the snapshot is
    dropped, so a reader that finds the snapshot gone finds the list.
    """

    __slots__ = ("_fidelities", "_pending")

    def __init__(
        self,
        evaluate: Callable[[Sequence, Sequence[float]], List[float]],
        keys: Sequence,
        snapshot: Sequence[float],
    ) -> None:
        self._fidelities: Optional[List[float]] = None
        self._pending = (evaluate, keys, snapshot)

    def fidelities(self) -> List[float]:
        fidelities = self._fidelities
        if fidelities is not None:
            return fidelities
        pending = self._pending
        if pending is None:  # another thread evaluated it meanwhile
            return self._fidelities
        evaluate, keys, snapshot = pending
        fidelities = evaluate(keys, snapshot)
        self._fidelities = fidelities
        self._pending = None
        return fidelities


class _DeferredRecord(CalibrationRecord):
    """A record an analytic sweep published before evaluating its truth.

    The sweep drew the estimation noise and set the timestamp; the
    record holds its :class:`_Sweep`, its index in it and that noise.
    The first read of :attr:`value` computes ``min(1, max(0.25, truth +
    noise))`` from the sweep's fidelities (evaluating the whole sweep if
    no record of it was read before), stores it, drops the sweep and
    turns the record into a plain :class:`CalibrationRecord`, so every
    later read is a plain slot read.

    Two threads that resolve one shared record compute and store the
    same float; the value is stored before the sweep is dropped.
    """

    __slots__ = ()

    def __init__(
        self, sweep: _Sweep, index: int, noise: float, timestamp_us: float
    ) -> None:
        object.__setattr__(self, "timestamp_us", timestamp_us)
        object.__setattr__(self, "_pending", (sweep, index, noise))

    def __getattr__(self, name):
        # Reached only while the ``value`` slot is still empty.
        if name != "value":
            raise AttributeError(name)
        pending = self._pending
        if pending is None:  # another thread resolved it meanwhile
            return object.__getattribute__(self, "value")
        sweep, index, noise = pending
        truth = sweep.fidelities()[index]
        value = float(min(1.0, max(_FIDELITY_FLOOR, truth + noise)))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "__class__", CalibrationRecord)
        object.__setattr__(self, "_pending", None)
        return value


@dataclass
class CalibrationData:
    """The device page a vendor publishes: per-gate/link/qubit records."""

    two_qubit: Dict[Tuple[Link, str], CalibrationRecord] = field(
        default_factory=dict
    )
    single_qubit: Dict[int, CalibrationRecord] = field(default_factory=dict)
    readout: Dict[int, CalibrationRecord] = field(default_factory=dict)

    def two_qubit_fidelity(self, link: Link, gate_name: str) -> float:
        record = self.two_qubit.get((make_link(*link), gate_name))
        if record is None:
            raise CalibrationError(
                f"no calibration record for {gate_name!r} on link {link}"
            )
        return record.value

    def gates_calibrated_on(self, link: Link) -> List[str]:
        link = make_link(*link)
        return [
            g
            for g in NATIVE_TWO_QUBIT_GATES
            if (link, g) in self.two_qubit
        ]

    def best_native_gate(self, link: Link) -> str:
        """The noise-adaptive choice: highest calibrated fidelity wins.

        Ties break toward the canonical gate order so the baseline policy
        is deterministic.
        """
        link = make_link(*link)
        candidates = self.gates_calibrated_on(link)
        if not candidates:
            raise CalibrationError(f"no calibrated gates on link {link}")
        return max(
            candidates,
            key=lambda g: (
                self.two_qubit[(link, g)].value,
                -NATIVE_TWO_QUBIT_GATES.index(g),
            ),
        )

    def single_qubit_fidelity(self, qubit: int) -> float:
        record = self.single_qubit.get(qubit)
        if record is None:
            raise CalibrationError(f"no 1q calibration for qubit {qubit}")
        return record.value

    def readout_fidelity(self, qubit: int) -> float:
        record = self.readout.get(qubit)
        if record is None:
            raise CalibrationError(f"no readout calibration for qubit {qubit}")
        return record.value

    def snapshot(self) -> "CalibrationData":
        """A copy of the three maps for later comparison.

        The records themselves are shared (they are immutable): resolving
        a deferred record through either copy resolves it for both, with
        the same value.
        """
        return CalibrationData(
            two_qubit=dict(self.two_qubit),
            single_qubit=dict(self.single_qubit),
            readout=dict(self.readout),
        )


def mirror_benchmark_fidelity(
    device: RigettiAspenDevice,
    link: Link,
    gate_name: str,
    depths: Sequence[int] = (1, 2, 4, 8),
    shots: int = 300,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Estimate per-pulse fidelity with a mirror (Loschmidt) benchmark.

    For each depth *m*: apply ``m`` repetitions of [entangling pulse +
    random Pauli dressing], then the exact inverse sequence, and measure
    the survival probability of |00>. Random Pauli layers twirl coherent
    errors toward the incoherent average — the same state-averaging that
    makes vendor numbers blind to the errors' state dependence. Survival
    decays as ``A * f^(2m) + 1/4``; a bounded least-squares fit returns
    the per-pulse fidelity ``f``.
    """
    rng = rng if rng is not None else np.random.default_rng()
    link = make_link(*link)
    qubit_a, qubit_b = link
    survivals: List[float] = []
    executor = get_executor(device)
    for depth in depths:
        circuit = _mirror_circuit(qubit_a, qubit_b, gate_name, depth, rng)
        result = executor.submit(Job(circuit, shots, tag="calibration"))
        survivals.append(result.counts.get("00", 0) / shots)

    def model(m: np.ndarray, amplitude: float, fidelity: float) -> np.ndarray:
        return amplitude * fidelity ** (2 * m) + 0.25

    import warnings

    try:
        with warnings.catch_warnings():
            # Noise-free decays fit exactly; the singular covariance the
            # optimizer then reports is expected and not actionable.
            warnings.simplefilter("ignore")
            popt, _ = curve_fit(
                model,
                np.asarray(depths, dtype=float),
                np.asarray(survivals, dtype=float),
                p0=(0.7, 0.97),
                bounds=([0.0, 0.25], [1.0, 1.0]),
                maxfev=5000,
            )
        fidelity = float(popt[1])
    except RuntimeError:
        # Fit failure (pathologically noisy data): fall back to the
        # single-depth estimator from the shallowest sequence.
        base = max(1e-3, survivals[0] - 0.25) / 0.75
        fidelity = float(min(1.0, base ** (1.0 / (2 * depths[0]))))
    return fidelity


def _mirror_circuit(
    qubit_a: int,
    qubit_b: int,
    gate_name: str,
    depth: int,
    rng: np.random.Generator,
) -> QuantumCircuit:
    """Build one mirror-benchmark sequence in native gates."""
    width = max(qubit_a, qubit_b) + 1
    circuit = QuantumCircuit(width, name=f"mirror_{gate_name}_d{depth}")
    forward: List[Tuple[str, Tuple[int, ...], Tuple[float, ...]]] = []

    def emit(name: str, qubits: Tuple[int, ...], *params: float) -> None:
        circuit.add(name, qubits, *params)
        forward.append((name, qubits, tuple(params)))

    for _ in range(depth):
        if gate_name == "cz":
            emit("cz", (qubit_a, qubit_b))
        elif gate_name == "xy":
            emit("xy", (qubit_a, qubit_b), math.pi)
        elif gate_name == "cphase":
            emit("cphase", (qubit_a, qubit_b), math.pi / 2)
        else:
            raise DeviceError(f"unknown native gate {gate_name!r}")
        for qubit in (qubit_a, qubit_b):
            _emit_random_pauli(emit, qubit, rng)
    # Exact inverse: reverse order, invert each native gate.
    for name, qubits, params in reversed(forward):
        if name in ("rz", "xy", "cphase"):
            circuit.add(name, qubits, *(-p for p in params))
        elif name == "rx":
            circuit.add("rx", qubits, -params[0])
        else:  # cz is self-inverse
            circuit.add(name, qubits)
    circuit.measure(qubit_a)
    circuit.measure(qubit_b)
    return circuit


def _emit_random_pauli(emit, qubit: int, rng: np.random.Generator) -> None:
    """A uniformly random Pauli in native gates (I, X, Y, or Z)."""
    choice = int(rng.integers(4))
    if choice == 1:  # X
        emit("rx", (qubit,), math.pi)
    elif choice == 2:  # Y = X then Z up to phase
        emit("rx", (qubit,), math.pi)
        emit("rz", (qubit,), math.pi)
    elif choice == 3:  # Z (virtual)
        emit("rz", (qubit,), math.pi)


class CalibrationService:
    """Periodic benchmarking of a device, with per-gate cadence.

    In analytic mode a sweep draws each record's estimation noise and
    stamps it at sweep time, and the ground truth of the whole sweep is
    evaluated from its parameter snapshot on the first read of any of
    its records (see :class:`_Sweep` and :class:`_DeferredRecord`).
    Single-qubit records are deferred the
    same way in every mode; readout records, and the two-qubit records of
    the mirror and IRB protocols (which run circuits on the device), are
    computed when measured.

    Args:
        device: The device to benchmark (shares its clock).
        refresh_period_us: Per-native-gate refresh period; gates absent
            from the mapping use the defaults (CPHASE slowest).
        mode: ``"analytic"`` (ground truth + Gaussian estimation noise;
            fast, the default for experiments), ``"mirror"`` (run mirror
            benchmarking shots on the device), or ``"irb"`` (run full
            interleaved randomized benchmarking — the protocol the
            paper attributes to vendors).
        estimation_noise_std: Std-dev of analytic-mode estimation noise —
            models the finite-shot uncertainty of real benchmarking.
        seed: Seed for estimation noise and mirror sequence sampling.
    """

    def __init__(
        self,
        device: RigettiAspenDevice,
        refresh_period_us: Optional[Dict[str, float]] = None,
        mode: str = "analytic",
        estimation_noise_std: float = 0.0015,
        mirror_shots: int = 300,
        seed: int = 0,
    ) -> None:
        if mode not in ("analytic", "mirror", "irb"):
            raise CalibrationError(f"unknown calibration mode {mode!r}")
        self.device = device
        self.mode = mode
        self.estimation_noise_std = estimation_noise_std
        self.mirror_shots = mirror_shots
        self.refresh_period_us = dict(DEFAULT_REFRESH_PERIOD_US)
        if refresh_period_us:
            self.refresh_period_us.update(refresh_period_us)
        self.data = CalibrationData()
        self._last_calibrated_us: Dict[str, float] = {}
        self._rng = np.random.default_rng(seed)

    def clone(self, device: RigettiAspenDevice) -> "CalibrationService":
        """This service's exact state, now benchmarking *device* (a
        :meth:`~repro.device.device.RigettiAspenDevice.clone` of its
        own): records, cadence bookkeeping and the estimation-noise
        generator are copied, so neither service moves the other."""
        twin = copy.copy(self)
        twin.device = device
        twin.refresh_period_us = dict(self.refresh_period_us)
        twin.data = self.data.snapshot()
        twin._last_calibrated_us = dict(self._last_calibrated_us)
        twin._rng = copy.deepcopy(self._rng)
        return twin

    # ------------------------------------------------------------------
    def calibrate_gate(self, gate_name: str) -> int:
        """Benchmark every link supporting *gate_name*; returns link count.

        Costs simulated wall time, so calibrating itself lets the device
        drift — as on real hardware. In analytic mode the records are
        deferred: noise drawn and timestamp set now, ground truth of
        every link evaluated from this sweep's snapshot on the first
        read of any of them.
        """
        links = self.device.links_supporting(gate_name)
        records = self.data.two_qubit
        if self.mode == "analytic":
            self._defer(
                records,
                [(link, gate_name) for link in links],
                self.device.noise_layout.pulse_fidelities,
                self.estimation_noise_std,
            )
            self.device.advance_time(_CALIBRATION_SWEEP_US)
        else:
            for link in links:
                estimate = self._benchmark(link, gate_name)
                records[(link, gate_name)] = CalibrationRecord(
                    estimate, self.device.clock_us
                )
        self._last_calibrated_us[gate_name] = self.device.clock_us
        return len(links)

    def _defer(
        self,
        records: Dict,
        keys: List,
        evaluate: Callable[[Sequence, Sequence[float]], List[float]],
        noise_std: float,
    ) -> None:
        """Publish a deferred record under each of *keys*: estimation
        noise drawn (one draw per key, in order) and stamped now; the
        ground truth waits for the first read, as one
        ``evaluate(keys, snapshot)`` call."""
        if not keys:
            return
        sweep = _Sweep(evaluate, keys, self.device.drift.current)
        draws = self._rng.standard_normal(len(keys)).tolist()
        now = self.device.clock_us
        for index, (key, draw) in enumerate(zip(keys, draws)):
            records[key] = _DeferredRecord(sweep, index, noise_std * draw, now)

    def _benchmark(self, link: Link, gate_name: str) -> float:
        """Run the mirror or IRB protocol on the device now."""
        if self.mode == "mirror":
            return mirror_benchmark_fidelity(
                self.device,
                link,
                gate_name,
                shots=self.mirror_shots,
                rng=self._rng,
            )
        from .rb import interleaved_rb_fidelity

        return interleaved_rb_fidelity(
            self.device,
            link,
            gate_name,
            shots=self.mirror_shots,
            rng=self._rng,
        )

    def calibrate_single_qubit(self) -> None:
        """Deferred RX records for every qubit, as one sweep."""
        self._defer(
            self.data.single_qubit,
            list(self.device.topology.qubits),
            self.device.noise_layout.rx_fidelities,
            0.3 * self.estimation_noise_std,
        )

    def calibrate_readout(self) -> None:
        for qubit in self.device.topology.qubits:
            params = self.device.qubit_params[qubit]
            truth = params.readout_error().assignment_fidelity
            noisy = truth + 0.3 * self.estimation_noise_std * float(
                self._rng.standard_normal()
            )
            self.data.readout[qubit] = CalibrationRecord(
                float(min(1.0, max(0.5, noisy))), self.device.clock_us
            )

    def full_calibration(self) -> None:
        """Benchmark everything once (a fresh calibration cycle)."""
        tracer = obs.active_tracer()
        span = tracer.span("calibration.full") if tracer else obs.NULL_SPAN
        with span:
            for gate_name in self.device.native_gates.two_qubit:
                self.calibrate_gate(gate_name)
            self.calibrate_single_qubit()
            self.calibrate_readout()

    def maybe_recalibrate(self) -> List[str]:
        """Refresh any gate whose cadence has elapsed; returns refreshed.

        This is the staleness mechanism: between refreshes the published
        records are frozen while the device keeps drifting.
        """
        tracer = obs.active_tracer()
        span = tracer.span("calibration.refresh") if tracer else obs.NULL_SPAN
        with span:
            refreshed: List[str] = []
            now = self.device.clock_us
            for gate_name in self.device.native_gates.two_qubit:
                period = self.refresh_period_us.get(
                    gate_name, DEFAULT_REFRESH_PERIOD_US["cz"]
                )
                last = self._last_calibrated_us.get(gate_name)
                if last is None or now - last >= period:
                    self.calibrate_gate(gate_name)
                    refreshed.append(gate_name)
            span.set(gates=len(refreshed))
        return refreshed

    def staleness_us(self, gate_name: str) -> float:
        """Age of the newest record for *gate_name* (inf if never run)."""
        last = self._last_calibrated_us.get(gate_name)
        if last is None:
            return math.inf
        return self.device.clock_us - last
