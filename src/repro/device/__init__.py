"""The simulated Rigetti Aspen device stack.

* :mod:`~repro.device.topology` — octagon-lattice connectivity;
* :mod:`~repro.device.native_gates` — native gate sets and the three CNOT
  decompositions (paper Fig. 2);
* :mod:`~repro.device.noise_parameters` / :mod:`~repro.device.drift` —
  per-link drifting physics;
* :mod:`~repro.device.device` — the shot-based executor;
* :mod:`~repro.device.calibration` — vendor-style benchmarking with
  per-gate cadence (the staleness mechanism of paper Fig. 8);
* :mod:`~repro.device.presets` — Aspen-11 / Aspen-M-1 factories.
"""

from .calibration import (
    DEFAULT_REFRESH_PERIOD_US,
    CalibrationData,
    CalibrationRecord,
    CalibrationService,
    mirror_benchmark_fidelity,
)
from .device import ExecutionRecord, RigettiAspenDevice
from .drift import DriftingValue, DriftState
from .native_gates import (
    DEFAULT_PULSE_DURATIONS_NS,
    NATIVE_TWO_QUBIT_GATES,
    RIGETTI_NATIVE_GATES,
    NativeGateSet,
    cnot_decomposition,
    cnot_duration_ns,
    cnot_pulse_count,
    hadamard_native,
    native_two_qubit_gate_instances,
    u3_native,
)
from .noise_parameters import (
    QubitNoiseParameters,
    TwoQubitGateNoiseParameters,
    coherent_error_unitary,
    single_qubit_coherent_error,
)
from .rb import RbResult, interleaved_rb_fidelity, standard_rb
from .presets import (
    DEFAULT_PROFILE,
    NOISELESS_PROFILE,
    NoiseProfile,
    aspen11,
    aspen_m1,
    build_device,
    small_test_device,
)
from .topology import Link, Topology, aspen_topology, linear_topology, make_link

__all__ = [
    "Topology",
    "Link",
    "make_link",
    "aspen_topology",
    "linear_topology",
    "NativeGateSet",
    "RIGETTI_NATIVE_GATES",
    "NATIVE_TWO_QUBIT_GATES",
    "DEFAULT_PULSE_DURATIONS_NS",
    "cnot_decomposition",
    "cnot_pulse_count",
    "cnot_duration_ns",
    "hadamard_native",
    "u3_native",
    "native_two_qubit_gate_instances",
    "QubitNoiseParameters",
    "TwoQubitGateNoiseParameters",
    "coherent_error_unitary",
    "single_qubit_coherent_error",
    "DriftState",
    "DriftingValue",
    "RigettiAspenDevice",
    "ExecutionRecord",
    "CalibrationService",
    "CalibrationData",
    "CalibrationRecord",
    "DEFAULT_REFRESH_PERIOD_US",
    "mirror_benchmark_fidelity",
    "RbResult",
    "standard_rb",
    "interleaved_rb_fidelity",
    "NoiseProfile",
    "DEFAULT_PROFILE",
    "NOISELESS_PROFILE",
    "build_device",
    "aspen11",
    "aspen_m1",
    "small_test_device",
]
