"""Physical noise parameters of the simulated device.

Each qubit carries relaxation times, readout confusion, and single-qubit
gate error; each (link, native gate) pair carries a per-pulse error
triple: coherent over-rotation of the gate's own generator, parasitic ZZ
phase, and incoherent depolarizing. Every drifting scalar is a slot of
the device's :class:`~repro.device.drift.DriftState` (the records are
views of consecutive slots), so the device drifts in time.

The coherent terms are the paper's physics: randomized benchmarking
averages them into a single fidelity number, but in a specific circuit
they act on specific states and *interfere across consecutive pulses*,
which is why the calibration-optimal native gate is often not the
application-optimal one.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from ..circuit.gates import cphase_entries, rx_matrix, xy_entries
from ..exceptions import DeviceError
from ..linalg import kron_n
from ..sim.channels import ReadoutError
from .drift import DriftingValue, DriftState
from .native_gates import DEFAULT_PULSE_DURATIONS_NS

__all__ = [
    "QubitNoiseParameters",
    "TwoQubitGateNoiseParameters",
    "coherent_error_unitary",
    "coherent_error_unitaries",
    "single_qubit_coherent_error",
]

_ZZ_DIAGONAL = np.array([1.0, -1.0, -1.0, 1.0], dtype=complex)
_DIAGONAL = np.arange(4)


class _Slot:
    """A drifting field: a view of one slot of the record's DriftState.

    Reading returns a :class:`DriftingValue`; assigning one copies its
    process into the slot, so the edit is what advance and the
    parameter fingerprint see.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.position = owner.FIELDS.index(name)

    def __get__(self, params, owner=None):
        if params is None:
            return self
        return DriftingValue(params.drift, params.offset + self.position)

    def __set__(self, params, value: DriftingValue) -> None:
        params.drift.assign(params.offset + self.position, value.row())


class _NoiseRecord:
    """``len(FIELDS)`` consecutive slots of a :class:`DriftState` from
    ``offset`` on, plus a fixed pulse duration."""

    FIELDS: Tuple[str, ...] = ()
    __slots__ = ("drift", "offset", "_duration_ns")

    def __init__(
        self, drift: DriftState, offset: int, duration_ns: float
    ) -> None:
        if not 0 <= offset <= len(drift) - len(self.FIELDS):
            raise DeviceError(
                f"{type(self).__name__} slots {offset}+{len(self.FIELDS)} "
                f"outside a {len(drift)}-slot drift state"
            )
        self.drift = drift
        self.offset = offset
        self._duration_ns = float(duration_ns)

    def at(self, drift: DriftState, offset: int):
        """The same fields and duration, read from *drift* at *offset*."""
        return type(self)(drift, offset, self._duration_ns)


class QubitNoiseParameters(_NoiseRecord):
    """Per-qubit physics: relaxation, readout, single-qubit gate error.

    Attributes:
        t1_us / t2_us: Relaxation/coherence times in microseconds.
        readout_p01: P(read 0 | prepared 1).
        readout_p10: P(read 1 | prepared 0).
        rx_depolarizing: Depolarizing probability per RX pulse.
        rx_over_rotation: Coherent RX angle error per pulse (radians).
        rx_duration_ns: RX pulse duration (fixed at construction).
    """

    FIELDS = (
        "t1_us",
        "t2_us",
        "readout_p01",
        "readout_p10",
        "rx_depolarizing",
        "rx_over_rotation",
    )
    __slots__ = ()
    t1_us = _Slot()
    t2_us = _Slot()
    readout_p01 = _Slot()
    readout_p10 = _Slot()
    rx_depolarizing = _Slot()
    rx_over_rotation = _Slot()

    def __init__(
        self,
        drift: DriftState,
        offset: int,
        rx_duration_ns: float = DEFAULT_PULSE_DURATIONS_NS["rx"],
    ) -> None:
        super().__init__(drift, offset, rx_duration_ns)

    @property
    def rx_duration_ns(self) -> float:
        return self._duration_ns

    def readout_error(self) -> ReadoutError:
        return ReadoutError(
            p0_given_1=min(1.0, max(0.0, self.readout_p01.current)),
            p1_given_0=min(1.0, max(0.0, self.readout_p10.current)),
        )


class TwoQubitGateNoiseParameters(_NoiseRecord):
    """Per-(link, native gate) physics, charged per entangling pulse.

    Attributes:
        over_rotation: Coherent error angle along the gate's own
            generator (an extra ``CPHASE(eps)`` for cz/cphase pulses, an
            extra ``XY(eps)`` for xy pulses).
        zz_error: Parasitic ZZ phase accumulated during the pulse.
        depolarizing: Two-qubit depolarizing probability per pulse.
        duration_ns: Pulse duration (XY/CPHASE shorter than CZ, but a
            CNOT needs two of them — paper Fig. 2c); fixed at
            construction.
    """

    FIELDS = ("over_rotation", "zz_error", "depolarizing")
    __slots__ = ()
    over_rotation = _Slot()
    zz_error = _Slot()
    depolarizing = _Slot()

    @property
    def duration_ns(self) -> float:
        return self._duration_ns


def coherent_error_unitary(
    gate_name: str, over_rotation: float, zz_error: float
) -> np.ndarray:
    """The coherent error unitary trailing one two-qubit native pulse.

    ``U_err = G(eps) * exp(-i zeta ZZ / 2)`` where ``G`` is the pulse's
    own gate family (the two factors commute for all three Rigetti
    natives, so the order is immaterial). A batch of one of
    :func:`coherent_error_unitaries`.
    """
    return coherent_error_unitaries([(gate_name, over_rotation, zz_error)])[0]


def coherent_error_unitaries(
    errors: Sequence[Tuple[str, float, float]]
) -> np.ndarray:
    """:func:`coherent_error_unitary` of each ``(gate, over_rotation,
    zz_error)``, as one ``(N, 4, 4)`` stack.

    Each ``G(eps)`` is its gate's entries from Python scalars, and each
    ZZ phase ``exp(-i zeta/2 diag(ZZ))`` (exactly the identity for
    ``|zeta| < 1e-15``); the stacks are built and multiplied with one
    array call each.
    """
    families = []
    phases = []
    for gate_name, over_rotation, zeta in errors:
        if gate_name in ("cz", "cphase"):
            families.append(cphase_entries(over_rotation))
        elif gate_name == "xy":
            families.append(xy_entries(over_rotation))
        else:
            raise DeviceError(f"unknown two-qubit native gate {gate_name!r}")
        phases.append(None if abs(zeta) < 1e-15 else -1j * (zeta / 2.0))
    diagonals = np.ones((len(errors), 4), dtype=complex)
    rotated = [i for i, phase in enumerate(phases) if phase is not None]
    if rotated:
        diagonals[rotated] = np.exp(
            np.array([phases[i] for i in rotated])[:, None] * _ZZ_DIAGONAL
        )
    zz_phase = np.zeros((len(errors), 4, 4), dtype=complex)
    zz_phase[:, _DIAGONAL, _DIAGONAL] = diagonals
    return np.array(families, dtype=complex) @ zz_phase


def single_qubit_coherent_error(over_rotation: float) -> np.ndarray:
    """Coherent RX over-rotation error for single-qubit pulses."""
    if abs(over_rotation) < 1e-15:
        return np.eye(2, dtype=complex)
    return rx_matrix(over_rotation)
