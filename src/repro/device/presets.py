"""Factory presets: build Aspen-like devices with realistic noise draws.

A :class:`NoiseProfile` holds the hyper-distributions from which each
qubit's and each (link, gate)'s parameters are sampled. The defaults are
tuned so the simulated device exhibits the paper's phenomenology:

* two-qubit error rates in the ~0.5-6% range with strong link-to-link
  spread (paper Section I cites 1-12.5% across systems);
* the three native gates *compete*: comparable average (RB) fidelities,
  but different coherent-error signatures per link, so the
  calibration-best gate is frequently not the application-best one;
* drift time constants of hours, so within a calibration window the
  device moves noticeably but not chaotically (Figs. 8, 21).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import DeviceError
from .device import RigettiAspenDevice
from .drift import DriftState, Row
from .native_gates import DEFAULT_PULSE_DURATIONS_NS, NATIVE_TWO_QUBIT_GATES
from .noise_parameters import QubitNoiseParameters, TwoQubitGateNoiseParameters
from .topology import Link, Topology, aspen_topology, linear_topology

__all__ = [
    "NoiseProfile",
    "DEFAULT_PROFILE",
    "NOISELESS_PROFILE",
    "build_device",
    "aspen11",
    "aspen_m1",
    "small_test_device",
]

_HOUR_US = 3_600e6


@dataclass(frozen=True)
class NoiseProfile:
    """Hyper-parameters for sampling device physics.

    ``(low, high)`` pairs are uniform ranges; ``(mean, std)`` pairs are
    Gaussian. Per-gate multipliers let a profile bias one native gate's
    coherent signature without touching the others.
    """

    t1_us_range: Tuple[float, float] = (18.0, 35.0)
    t2_over_t1_range: Tuple[float, float] = (0.5, 1.2)
    readout_p01_range: Tuple[float, float] = (0.01, 0.05)
    readout_p10_range: Tuple[float, float] = (0.005, 0.03)
    rx_depolarizing_range: Tuple[float, float] = (4e-4, 2e-3)
    rx_over_rotation_std: float = 0.015
    two_qubit_depolarizing_log_range: Tuple[float, float] = (
        math.log(4e-3),
        math.log(3e-2),
    )
    over_rotation_std: float = 0.14
    zz_error_std: float = 0.12
    #: Heavy tail of the coherent error distribution: a fraction of
    #: (link, gate) pairs draw their coherent errors scaled up. RB-style
    #: calibration shrinks a coherent angle error quadratically (a 0.5 rad
    #: ZZ error still calibrates near 94%), while in-circuit the angles
    #: add linearly across pulses and interfere state-dependently — this
    #: is the mechanism behind the paper's large application-level gaps
    #: between calibration-best and runtime-best gates (Figs. 3, 18).
    coherent_outlier_fraction: float = 0.3
    coherent_outlier_scale: float = 2.5
    #: Per-gate scaling of the coherent error draws — gives each native
    #: gate family its own error signature.
    coherent_scale: Dict[str, float] = field(
        default_factory=lambda: {"xy": 1.15, "cz": 1.0, "cphase": 1.05}
    )
    #: Per-gate scaling of incoherent (depolarizing) draws. CZ's single
    #: pulse is longer and dirtier per pulse; XY/CPHASE pulses are
    #: cleaner but a CNOT needs two — the per-CNOT totals end up
    #: comparable, keeping the three gates in genuine competition.
    depolarizing_scale: Dict[str, float] = field(
        default_factory=lambda: {"xy": 0.95, "cz": 1.8, "cphase": 0.9}
    )
    #: Fraction of links on which each gate is simply unavailable.
    missing_gate_fraction: Dict[str, float] = field(
        default_factory=lambda: {"xy": 0.03, "cz": 0.0, "cphase": 0.08}
    )
    #: OU stationary std as a fraction of each parameter's initial value
    #: (for probabilities) or absolute (for angles). Coherent angles
    #: drift by ~0.3 rad over a correlation time of hours: large enough
    #: that a day-old CPHASE record is effectively uncorrelated with the
    #: device's present state — the staleness trap of Figs. 7-8.
    drift_relative_std: float = 0.60
    drift_angle_std: float = 0.30
    drift_correlation_time_us: float = 8 * _HOUR_US
    pulse_durations_ns: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PULSE_DURATIONS_NS)
    )


DEFAULT_PROFILE = NoiseProfile()

#: Everything exactly zero-noise and drift-free: for pipeline tests.
NOISELESS_PROFILE = NoiseProfile(
    t1_us_range=(1e6, 1e6),
    t2_over_t1_range=(2.0, 2.0),
    readout_p01_range=(0.0, 0.0),
    readout_p10_range=(0.0, 0.0),
    rx_depolarizing_range=(0.0, 0.0),
    rx_over_rotation_std=0.0,
    two_qubit_depolarizing_log_range=(math.log(1e-12), math.log(1e-12)),
    over_rotation_std=0.0,
    zz_error_std=0.0,
    missing_gate_fraction={"xy": 0.0, "cz": 0.0, "cphase": 0.0},
    drift_relative_std=0.0,
    drift_angle_std=0.0,
)


def _ou(
    value: float,
    std: float,
    tau: float,
    low: float = 0.0,
    high: float = math.inf,
) -> Row:
    """An OU process started at (and reverting to) *value*."""
    return (value, std, tau, value, low, high)


def _sample_qubit(
    rng: np.random.Generator, profile: NoiseProfile
) -> List[Row]:
    """Rows in :attr:`QubitNoiseParameters.FIELDS` order."""
    tau = profile.drift_correlation_time_us
    rel = profile.drift_relative_std
    t1 = float(rng.uniform(*profile.t1_us_range))
    t2 = float(t1 * rng.uniform(*profile.t2_over_t1_range))
    p01 = float(rng.uniform(*profile.readout_p01_range))
    p10 = float(rng.uniform(*profile.readout_p10_range))
    rx_depol = float(rng.uniform(*profile.rx_depolarizing_range))
    rx_over = float(rng.normal(0.0, profile.rx_over_rotation_std))
    return [
        _ou(t1, rel * t1 * 0.3, tau, low=1.0),
        _ou(t2, rel * t2 * 0.3, tau, low=0.5),
        _ou(p01, rel * p01, tau, high=0.5),
        _ou(p10, rel * p10, tau, high=0.5),
        _ou(rx_depol, rel * rx_depol, tau, high=0.1),
        _ou(rx_over, profile.drift_angle_std * 0.2, tau, low=-0.5, high=0.5),
    ]


def _sample_link_gate(
    rng: np.random.Generator, profile: NoiseProfile, gate_name: str
) -> List[Row]:
    """Rows in :attr:`TwoQubitGateNoiseParameters.FIELDS` order."""
    tau = profile.drift_correlation_time_us
    rel = profile.drift_relative_std
    coh_scale = profile.coherent_scale.get(gate_name, 1.0)
    dep_scale = profile.depolarizing_scale.get(gate_name, 1.0)
    log_low, log_high = profile.two_qubit_depolarizing_log_range
    depol = float(dep_scale * math.exp(rng.uniform(log_low, log_high)))
    if rng.random() < profile.coherent_outlier_fraction:
        coh_scale *= profile.coherent_outlier_scale
    over = float(rng.normal(0.0, coh_scale * profile.over_rotation_std))
    zz = float(rng.normal(0.0, coh_scale * profile.zz_error_std))
    return [
        _ou(over, profile.drift_angle_std, tau, low=-0.8, high=0.8),
        _ou(zz, profile.drift_angle_std, tau, low=-0.8, high=0.8),
        _ou(depol, rel * depol, tau, high=0.3),
    ]


def build_device(
    topology: Topology,
    seed: int = 0,
    profile: NoiseProfile = DEFAULT_PROFILE,
    idle_noise: bool = False,
    crosstalk_zz: float = 0.0,
    channel_cache: bool = True,
) -> RigettiAspenDevice:
    """Sample a full device from *profile* on the given topology.

    The same seed always yields the same device (parameters, missing
    gates, and future drift trajectory). *idle_noise* additionally
    charges T1/T2 decay to idle qubits per moment (extension; off by
    default to keep the paper-calibrated phenomenology unchanged).
    """
    rng = np.random.default_rng(seed)
    rows: List[Row] = []
    for _ in topology.qubits:
        rows.extend(_sample_qubit(rng, profile))
    gate_keys: List[Tuple[Link, str]] = []
    for link in topology.links:
        available = [
            g
            for g in NATIVE_TWO_QUBIT_GATES
            if rng.random() >= profile.missing_gate_fraction.get(g, 0.0)
        ]
        if not available:
            available = ["cz"]  # every Aspen link supports CZ
        for gate_name in available:
            rows.extend(_sample_link_gate(rng, profile, gate_name))
            gate_keys.append((link, gate_name))
    drift = DriftState(rows)
    per_qubit = len(QubitNoiseParameters.FIELDS)
    qubit_params = {
        qubit: QubitNoiseParameters(
            drift, per_qubit * index, profile.pulse_durations_ns["rx"]
        )
        for index, qubit in enumerate(topology.qubits)
    }
    base = per_qubit * len(qubit_params)
    per_gate = len(TwoQubitGateNoiseParameters.FIELDS)
    gate_params = {
        key: TwoQubitGateNoiseParameters(
            drift, base + per_gate * index, profile.pulse_durations_ns[key[1]]
        )
        for index, key in enumerate(gate_keys)
    }
    return RigettiAspenDevice(
        topology=topology,
        qubit_params=qubit_params,
        gate_params=gate_params,
        seed=seed + 1,
        idle_noise=idle_noise,
        crosstalk_zz=crosstalk_zz,
        channel_cache=channel_cache,
    )


def aspen11(
    seed: int = 11,
    profile: NoiseProfile = DEFAULT_PROFILE,
    idle_noise: bool = False,
    crosstalk_zz: float = 0.0,
) -> RigettiAspenDevice:
    """A 38-qubit Aspen-11-like device (one row of five octagons).

    Five octagons give 40 fabricated qubits; two are dead, matching the
    38 usable qubits the paper reports.
    """
    topology = aspen_topology(
        rows=1,
        cols=5,
        name="aspen-11",
        dead_qubits=(14, 33),
    )
    return build_device(
        topology,
        seed=seed,
        profile=profile,
        idle_noise=idle_noise,
        crosstalk_zz=crosstalk_zz,
    )


def aspen_m1(
    seed: int = 1,
    profile: NoiseProfile = DEFAULT_PROFILE,
    idle_noise: bool = False,
    crosstalk_zz: float = 0.0,
) -> RigettiAspenDevice:
    """An 80-qubit Aspen-M-1-like device (two rows of five octagons).

    The full lattice has 106 links; three are disabled so the active
    count matches the 103 physical links the paper counts.
    """
    topology = aspen_topology(
        rows=2,
        cols=5,
        name="aspen-m-1",
        disabled_links=((11, 26), (10, 63), (31, 46)),
    )
    return build_device(
        topology,
        seed=seed,
        profile=profile,
        idle_noise=idle_noise,
        crosstalk_zz=crosstalk_zz,
    )


def small_test_device(
    num_qubits: int = 5,
    seed: int = 7,
    profile: NoiseProfile = DEFAULT_PROFILE,
    channel_cache: bool = True,
) -> RigettiAspenDevice:
    """A linear-chain device for unit tests and quick examples."""
    # Force all three gates available on every link so tests are stable.
    forced = NoiseProfile(
        **{
            **profile.__dict__,
            "missing_gate_fraction": {"xy": 0.0, "cz": 0.0, "cphase": 0.0},
        }
    )
    return build_device(
        linear_topology(num_qubits, name=f"line-{num_qubits}"),
        seed=seed,
        profile=forced,
        channel_cache=channel_cache,
    )
