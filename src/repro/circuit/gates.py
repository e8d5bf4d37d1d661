"""Gate definitions and the gate registry.

A :class:`Gate` is an immutable record ``(name, qubits, params)``. Its
semantics (arity, parameter count, unitary matrix, Clifford membership)
come from a :class:`GateSpec` looked up in the module-level registry, so
the circuit IR stays a plain data structure while all gate knowledge lives
in one table.

Conventions
-----------
* **Big-endian qubit ordering.** Qubit 0 is the most-significant bit of a
  state index and the leftmost character of a measured bitstring. For a
  two-qubit gate matrix, the first listed qubit indexes the most
  significant factor of the Kronecker product.
* **Rotation sign.** ``RX(theta) = exp(-i theta X / 2)`` and likewise for
  RY/RZ, matching the usual physics convention (and Qiskit/pyQuil).
* **XY gate.** ``XY(theta) = exp(i theta (XX + YY) / 4)`` — Rigetti's
  parametric iSWAP family; ``XY(pi)`` is exactly iSWAP.
* **CPHASE gate.** ``CPHASE(theta) = diag(1, 1, 1, e^{i theta})``;
  ``CPHASE(pi)`` is exactly CZ.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_REGISTRY",
    "gate_matrix",
    "register_gate",
    "MEASURE",
    "BARRIER",
    "NON_UNITARY_NAMES",
    "TWO_QUBIT_NATIVE_NAMES",
    "rx_matrix",
    "ry_matrix",
    "rz_matrix",
    "u3_matrix",
    "phase_matrix",
    "cphase_matrix",
    "xy_matrix",
]

# Names of instructions that are not unitary gates.
MEASURE = "measure"
BARRIER = "barrier"
NON_UNITARY_NAMES = frozenset({MEASURE, BARRIER})

#: The two-qubit native gates of the Rigetti Aspen family studied in the
#: paper. ``cnot`` itself is *not* native — it must be nativized through one
#: of these.
TWO_QUBIT_NATIVE_NAMES = ("xy", "cz", "cphase")

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def rx_matrix(theta: float) -> np.ndarray:
    """Rotation about X: ``exp(-i theta X / 2)``."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    """Rotation about Y: ``exp(-i theta Y / 2)``."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array([[cos, -sin], [sin, cos]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    """Rotation about Z: ``exp(-i theta Z / 2)``."""
    phase = cmath.exp(-1j * theta / 2.0)
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


def phase_matrix(lam: float) -> np.ndarray:
    """Phase gate ``diag(1, e^{i lambda})`` (RZ up to global phase)."""
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * lam)]], dtype=complex)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic single-qubit rotation, Qiskit's U3 convention.

    ``U3(theta, phi, lambda) = [[cos(t/2), -e^{i l} sin(t/2)],
    [e^{i p} sin(t/2), e^{i(p+l)} cos(t/2)]]``. Any single-qubit unitary
    equals some U3 up to global phase.
    """
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def cphase_matrix(theta: float) -> np.ndarray:
    """Controlled-phase ``diag(1, 1, 1, e^{i theta})``; CPHASE(pi) == CZ."""
    return np.array(cphase_entries(theta), dtype=complex)


def cphase_entries(theta: float) -> List[List[complex]]:
    """:func:`cphase_matrix` as nested lists of Python numbers, so many
    of them stack with one ``np.array`` call."""
    return [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, cmath.exp(1j * theta)],
    ]


def xy_matrix(theta: float) -> np.ndarray:
    """Rigetti's parametric XY gate, ``exp(i theta (XX + YY) / 4)``.

    Acts only on the single-excitation subspace ``{|01>, |10>}``:
    ``XY(pi)`` is iSWAP, ``XY(pi/2)`` is sqrt(iSWAP).
    """
    return np.array(xy_entries(theta), dtype=complex)


def xy_entries(theta: float) -> List[List[complex]]:
    """:func:`xy_matrix` as nested lists of Python numbers."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, cos, 1j * sin, 0.0],
        [0.0, 1j * sin, cos, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]


def _fixed(matrix: np.ndarray) -> Callable[..., np.ndarray]:
    matrix = np.asarray(matrix, dtype=complex)
    matrix.setflags(write=False)

    def build() -> np.ndarray:
        return matrix

    return build


_ID = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _rz_is_clifford(theta: float) -> bool:
    return _is_multiple_of_half_pi(theta)


def _is_multiple_of_half_pi(theta: float, atol: float = 1e-9) -> bool:
    ratio = theta / (math.pi / 2.0)
    return abs(ratio - round(ratio)) < atol


def _is_multiple_of_pi(theta: float, atol: float = 1e-9) -> bool:
    ratio = theta / math.pi
    return abs(ratio - round(ratio)) < atol


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes:
        name: Canonical lowercase gate name.
        num_qubits: Arity of the gate.
        num_params: Number of real parameters.
        matrix_builder: Callable producing the unitary from the params, or
            ``None`` for non-unitary instructions (measure, barrier).
        clifford_predicate: Callable deciding Clifford membership from the
            params; fixed gates use a constant.
        self_inverse: True if the gate is always its own inverse.
        inverse_name: Name of the inverse gate type when it is a different
            fixed gate (e.g. ``s`` <-> ``sdg``).
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_builder: Optional[Callable[..., np.ndarray]]
    clifford_predicate: Callable[..., bool]
    self_inverse: bool = False
    inverse_name: Optional[str] = None

    @property
    def is_unitary(self) -> bool:
        return self.matrix_builder is not None


def _always(*_params: float) -> bool:
    return True


def _never(*_params: float) -> bool:
    return False


GATE_REGISTRY: Dict[str, GateSpec] = {}


def register_gate(spec: GateSpec) -> GateSpec:
    """Insert *spec* into the global registry, rejecting duplicates."""
    if spec.name in GATE_REGISTRY:
        raise CircuitError(f"gate {spec.name!r} is already registered")
    GATE_REGISTRY[spec.name] = spec
    return spec


def _register_all() -> None:
    one_qubit_fixed = [
        ("id", _ID, True, None),
        ("x", _X, True, None),
        ("y", _Y, True, None),
        ("z", _Z, True, None),
        ("h", _H, True, None),
        ("s", _S, False, "sdg"),
        ("sdg", _SDG, False, "s"),
    ]
    for name, matrix, self_inv, inv in one_qubit_fixed:
        register_gate(
            GateSpec(name, 1, 0, _fixed(matrix), _always, self_inv, inv)
        )
    register_gate(GateSpec("t", 1, 0, _fixed(_T), _never, False, "tdg"))
    register_gate(GateSpec("tdg", 1, 0, _fixed(_TDG), _never, False, "t"))

    register_gate(GateSpec("rx", 1, 1, rx_matrix, _is_multiple_of_half_pi))
    register_gate(GateSpec("ry", 1, 1, ry_matrix, _is_multiple_of_half_pi))
    register_gate(GateSpec("rz", 1, 1, rz_matrix, _rz_is_clifford))
    register_gate(GateSpec("phase", 1, 1, phase_matrix, _is_multiple_of_half_pi))
    register_gate(
        GateSpec(
            "u3",
            1,
            3,
            u3_matrix,
            lambda t, p, l: all(_is_multiple_of_half_pi(a) for a in (t, p, l)),
        )
    )

    register_gate(GateSpec("cnot", 2, 0, _fixed(_CNOT), _always, True))
    register_gate(GateSpec("cz", 2, 0, _fixed(_CZ), _always, True))
    register_gate(GateSpec("swap", 2, 0, _fixed(_SWAP), _always, True))
    register_gate(GateSpec("iswap", 2, 0, _fixed(_ISWAP), _always))
    register_gate(GateSpec("cphase", 2, 1, cphase_matrix, _is_multiple_of_pi))
    register_gate(GateSpec("xy", 2, 1, xy_matrix, _is_multiple_of_pi))

    # Explicit idle period: identity unitary parameterized by its
    # duration in nanoseconds. Never written by programs — the device
    # executor inserts these per moment when idle-noise modelling is on,
    # so the noise model can charge T1/T2 decay to waiting qubits.
    register_gate(
        GateSpec("idle", 1, 1, lambda duration_ns: _ID, _always)
    )

    register_gate(GateSpec(MEASURE, 1, 0, None, _never))
    register_gate(GateSpec(BARRIER, 0, 0, None, _never))


_register_all()


@dataclass(frozen=True)
class Gate:
    """One instruction in a circuit: a named gate on specific qubits.

    Instances are immutable and hashable, so circuits can be diffed and
    native-gate sequences can key on sites. Matrices are built lazily from
    the registry; non-unitary instructions (measure, barrier) have no
    matrix.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        spec = GATE_REGISTRY.get(self.name)
        if spec is None:
            raise CircuitError(f"unknown gate {self.name!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if spec.name != BARRIER and len(self.qubits) != spec.num_qubits:
            raise CircuitError(
                f"gate {self.name!r} expects {spec.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(
                f"gate {self.name!r} applied to duplicate qubits {self.qubits}"
            )
        if len(self.params) != spec.num_params:
            raise CircuitError(
                f"gate {self.name!r} expects {spec.num_params} params, "
                f"got {len(self.params)}"
            )
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {self}")

    @property
    def spec(self) -> GateSpec:
        return GATE_REGISTRY[self.name]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_unitary(self) -> bool:
        return self.spec.is_unitary

    @property
    def is_measurement(self) -> bool:
        return self.name == MEASURE

    @property
    def is_barrier(self) -> bool:
        return self.name == BARRIER

    @property
    def is_two_qubit(self) -> bool:
        return self.is_unitary and len(self.qubits) == 2

    @property
    def is_clifford(self) -> bool:
        """Clifford membership (exact, from per-gate parameter rules)."""
        if not self.is_unitary:
            return False
        return bool(self.spec.clifford_predicate(*self.params))

    def matrix(self) -> np.ndarray:
        """The gate unitary; raises for non-unitary instructions."""
        builder = self.spec.matrix_builder
        if builder is None:
            raise CircuitError(f"instruction {self.name!r} has no matrix")
        return builder(*self.params)

    def inverse(self) -> "Gate":
        """The inverse gate as another :class:`Gate` instance."""
        spec = self.spec
        if not spec.is_unitary:
            raise CircuitError(f"cannot invert non-unitary {self.name!r}")
        if spec.self_inverse:
            return self
        if spec.inverse_name is not None:
            return Gate(spec.inverse_name, self.qubits)
        if spec.num_params >= 1 and self.name in (
            "rx",
            "ry",
            "rz",
            "phase",
            "cphase",
            "xy",
        ):
            return Gate(self.name, self.qubits, tuple(-p for p in self.params))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", self.qubits, (-theta, -lam, -phi))
        if self.name == "iswap":
            return Gate("xy", self.qubits, (-math.pi,))
        raise CircuitError(f"no inverse rule for gate {self.name!r}")

    def remap(self, mapping: Sequence[int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each qubit *q*."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def __str__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({args}) {list(self.qubits)}"
        return f"{self.name} {list(self.qubits)}"


def gate_matrix(name: str, *params: float) -> np.ndarray:
    """Convenience lookup: the unitary of gate *name* with *params*."""
    spec = GATE_REGISTRY.get(name)
    if spec is None:
        raise CircuitError(f"unknown gate {name!r}")
    if spec.matrix_builder is None:
        raise CircuitError(f"instruction {name!r} has no matrix")
    return spec.matrix_builder(*params)
