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
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class CalibrationRecord:
    """One published fidelity number and when it was measured."""

    value: float
    timestamp_us: float

    def age_us(self, now_us: float) -> float:
        return now_us - self.timestamp_us


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
        """An immutable-ish copy (records are frozen) for later comparison."""
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
        drift — as on real hardware.
        """
        links = self.device.links_supporting(gate_name)
        for link in links:
            estimate = self._estimate(link, gate_name)
            self.data.two_qubit[(link, gate_name)] = CalibrationRecord(
                value=estimate, timestamp_us=self.device.clock_us
            )
        if self.mode == "analytic":
            self.device.advance_time(_CALIBRATION_SWEEP_US)
        self._last_calibrated_us[gate_name] = self.device.clock_us
        return len(links)

    def _estimate(self, link: Link, gate_name: str) -> float:
        if self.mode == "mirror":
            return mirror_benchmark_fidelity(
                self.device,
                link,
                gate_name,
                shots=self.mirror_shots,
                rng=self._rng,
            )
        if self.mode == "irb":
            from .rb import interleaved_rb_fidelity

            return interleaved_rb_fidelity(
                self.device,
                link,
                gate_name,
                shots=self.mirror_shots,
                rng=self._rng,
            )
        truth = self.device.true_pulse_fidelity(link, gate_name)
        noisy = truth + self.estimation_noise_std * float(
            self._rng.standard_normal()
        )
        return float(min(1.0, max(0.25, noisy)))

    def calibrate_single_qubit(self) -> None:
        for qubit in self.device.topology.qubits:
            truth = self.device.true_rx_fidelity(qubit)
            noisy = truth + 0.3 * self.estimation_noise_std * float(
                self._rng.standard_normal()
            )
            self.data.single_qubit[qubit] = CalibrationRecord(
                value=float(min(1.0, max(0.25, noisy))),
                timestamp_us=self.device.clock_us,
            )

    def calibrate_readout(self) -> None:
        for qubit in self.device.topology.qubits:
            params = self.device.qubit_params[qubit]
            truth = params.readout_error().assignment_fidelity
            noisy = truth + 0.3 * self.estimation_noise_std * float(
                self._rng.standard_normal()
            )
            self.data.readout[qubit] = CalibrationRecord(
                value=float(min(1.0, max(0.5, noisy))),
                timestamp_us=self.device.clock_us,
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
