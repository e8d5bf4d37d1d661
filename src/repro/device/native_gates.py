"""Native gate sets and CNOT decomposition rules (paper Fig. 2).

Rigetti Aspen devices execute ``RX(k*pi/2)``, ``RZ(theta)`` (virtual,
zero-duration) and three two-qubit natives: ``XY(pi)`` (iSWAP), ``CZ``,
and ``CPHASE(theta)``. A program-level CNOT can be nativized through any
of the three:

* **CZ** — one entangling pulse: ``CNOT = (I x H) CZ (I x H)``;
* **CPHASE** — two shorter pulses: ``CPHASE(pi/2)`` is diagonal so two of
  them compose exactly to CZ, matching the paper's note that the XY and
  CPHASE pulses are shorter but a CNOT needs two of them;
* **XY** — two ``XY(pi)`` pulses with single-qubit dressing (the
  Schuch–Siewert construction; the exact pi/2-multiple corrections were
  derived numerically and are verified against the CNOT unitary in the
  test suite).

All decompositions are exact up to global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..circuit.gates import Gate
from ..exceptions import DeviceError

__all__ = [
    "NativeGateSet",
    "RIGETTI_NATIVE_GATES",
    "NATIVE_TWO_QUBIT_GATES",
    "DEFAULT_PULSE_DURATIONS_NS",
    "cnot_pulse_count",
    "cnot_duration_ns",
    "hadamard_native",
    "u3_native",
    "cnot_decomposition",
    "native_two_qubit_gate_instances",
]

_HALF_PI = math.pi / 2.0

#: Canonical order of the Rigetti two-qubit natives used everywhere
#: (sequence encodings, search candidate order, report columns).
NATIVE_TWO_QUBIT_GATES: Tuple[str, ...] = ("xy", "cz", "cphase")

#: Physical pulse durations in nanoseconds. RZ is virtual (frame update).
#: CZ uses one long pulse; XY and CPHASE pulses are shorter but a CNOT
#: needs two of them (paper Fig. 2c), so total entangling time is similar
#: and the fidelity competition between the gates stays realistic.
DEFAULT_PULSE_DURATIONS_NS: Dict[str, float] = {
    "rx": 40.0,
    "rz": 0.0,
    "cz": 180.0,
    "xy": 100.0,
    "cphase": 90.0,
    "measure": 1800.0,
}

#: Number of two-qubit pulses a CNOT costs through each native gate.
_PULSES_PER_CNOT: Dict[str, int] = {"cz": 1, "xy": 2, "cphase": 2}


@dataclass(frozen=True)
class NativeGateSet:
    """The instruction set a device executes directly.

    Attributes:
        name: Identifier for reports.
        single_qubit: Allowed single-qubit gate names.
        two_qubit: Allowed two-qubit native gate names, canonical order.
        rx_angles: Allowed RX angles (Rigetti pulses exist only for
            multiples of pi/2; RZ is unconstrained because it is virtual).
    """

    name: str
    single_qubit: Tuple[str, ...]
    two_qubit: Tuple[str, ...]
    rx_angles: Tuple[float, ...] = (
        -math.pi,
        -_HALF_PI,
        0.0,
        _HALF_PI,
        math.pi,
    )

    def is_native(self, gate: Gate) -> bool:
        """True if *gate* is directly executable on this gate set."""
        if gate.is_measurement or gate.is_barrier:
            return True
        if gate.num_qubits == 1:
            if gate.name not in self.single_qubit:
                return False
            if gate.name == "rx":
                return any(
                    math.isclose(gate.params[0], angle, abs_tol=1e-9)
                    for angle in self.rx_angles
                )
            return True
        return gate.name in self.two_qubit


RIGETTI_NATIVE_GATES = NativeGateSet(
    name="rigetti-aspen",
    single_qubit=("rx", "rz"),
    two_qubit=NATIVE_TWO_QUBIT_GATES,
)


def cnot_pulse_count(native: str) -> int:
    """Two-qubit pulses per CNOT through the given native gate."""
    try:
        return _PULSES_PER_CNOT[native]
    except KeyError as exc:
        raise DeviceError(f"unknown native two-qubit gate {native!r}") from exc


def cnot_duration_ns(
    native: str, durations: Dict[str, float] = DEFAULT_PULSE_DURATIONS_NS
) -> float:
    """Total entangling-pulse time of one CNOT through *native*."""
    return cnot_pulse_count(native) * durations[native]


def hadamard_native(qubit: int) -> List[Gate]:
    """H as native gates: ``RZ(pi/2) RX(pi/2) RZ(pi/2)`` (application order)."""
    return [
        Gate("rz", (qubit,), (_HALF_PI,)),
        Gate("rx", (qubit,), (_HALF_PI,)),
        Gate("rz", (qubit,), (_HALF_PI,)),
    ]


def u3_native(theta: float, phi: float, lam: float, qubit: int) -> List[Gate]:
    """U3 as natives: ``RZ(phi) RX(-pi/2) RZ(theta) RX(pi/2) RZ(lam)``.

    Uses the identity ``RY(theta) = RX(-pi/2) RZ(theta) RX(pi/2)`` inside
    the standard ZYZ Euler form; exact up to global phase. Returned in
    application order (the RZ(lam) first).
    """
    return [
        Gate("rz", (qubit,), (lam,)),
        Gate("rx", (qubit,), (_HALF_PI,)),
        Gate("rz", (qubit,), (theta,)),
        Gate("rx", (qubit,), (-_HALF_PI,)),
        Gate("rz", (qubit,), (phi,)),
    ]


# Single-qubit U3 corrections for the two-XY(pi) CNOT decomposition,
# derived numerically (see DESIGN.md §5.4) and verified exact in tests.
# Each entry is (theta, phi, lam) in units of pi/2 multiples.
_XY_LAYER_1 = ((0.0, math.pi, 0.0), (0.0, _HALF_PI, math.pi))
_XY_LAYER_2 = ((_HALF_PI, 0.0, _HALF_PI), (0.0, 0.0, _HALF_PI))
_XY_LAYER_3 = ((0.0, _HALF_PI, _HALF_PI), (_HALF_PI, -3 * _HALF_PI, _HALF_PI))


def _u3_layer(
    params: Tuple[Tuple[float, float, float], Tuple[float, float, float]],
    control: int,
    target: int,
) -> List[Gate]:
    gates: List[Gate] = []
    for (theta, phi, lam), qubit in zip(params, (control, target)):
        gates.extend(u3_native(theta, phi, lam, qubit))
    return gates


def cnot_decomposition(native: str, control: int, target: int) -> List[Gate]:
    """Nativize ``CNOT(control, target)`` through the chosen native gate.

    Returns the gate list in application order, exact up to global phase.
    Gates are immutable, so each (native, control, target) builds its
    gates once per process, and decompositions touching the same qubit
    share its equal dressing gates; every call returns a new list.
    """
    return list(_cnot_gates(native, int(control), int(target)))


#: Distinct (native, control, target) decompositions kept: every
#: directed link of an 80-qubit Aspen-M-1 through all three natives.
_CNOT_DECOMPOSITIONS = 1024


@lru_cache(maxsize=_CNOT_DECOMPOSITIONS)
def _cnot_gates(native: str, control: int, target: int) -> Tuple[Gate, ...]:
    return tuple(
        _shared_gate(gate)
        for gate in _build_cnot_decomposition(native, control, target)
    )


@lru_cache(maxsize=4 * _CNOT_DECOMPOSITIONS)
def _shared_gate(gate: Gate) -> Gate:
    """The first instance seen of each distinct gate."""
    return gate


def _build_cnot_decomposition(
    native: str, control: int, target: int
) -> List[Gate]:
    if native == "cz":
        return (
            hadamard_native(target)
            + [Gate("cz", (control, target))]
            + hadamard_native(target)
        )
    if native == "cphase":
        return (
            hadamard_native(target)
            + [
                Gate("cphase", (control, target), (_HALF_PI,)),
                Gate("cphase", (control, target), (_HALF_PI,)),
            ]
            + hadamard_native(target)
        )
    if native == "xy":
        return (
            _u3_layer(_XY_LAYER_1, control, target)
            + [Gate("xy", (control, target), (math.pi,))]
            + _u3_layer(_XY_LAYER_2, control, target)
            + [Gate("xy", (control, target), (math.pi,))]
            + _u3_layer(_XY_LAYER_3, control, target)
        )
    raise DeviceError(f"unknown native two-qubit gate {native!r}")


def native_two_qubit_gate_instances(
    native: str, qubit_a: int, qubit_b: int
) -> List[Gate]:
    """The entangling pulses a CNOT emits on a link through *native*.

    Used by the noise model to charge per-pulse errors: one CZ pulse, two
    XY(pi) pulses, or two CPHASE(pi/2) pulses.
    """
    if native == "cz":
        return [Gate("cz", (qubit_a, qubit_b))]
    if native == "xy":
        return [Gate("xy", (qubit_a, qubit_b), (math.pi,))] * 2
    if native == "cphase":
        return [Gate("cphase", (qubit_a, qubit_b), (_HALF_PI,))] * 2
    raise DeviceError(f"unknown native two-qubit gate {native!r}")
