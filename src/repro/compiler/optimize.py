"""Pre-search circuit optimization passes.

ANGEL's compile cost is dominated by the ``1 + 2L`` probe budget, so the
cheapest probe is the one that is never run: every gate cancelled before
nativization shrinks the circuit the CopyCat imitates, and every link
whose CNOTs all cancel drops two probes from the budget outright. The
pass layer here runs on the *logical* circuit, ahead of layout, routing
and scheduling, in the compile-before-you-search spirit of ZX-calculus
transpilers: search over the smallest equivalent circuit.

Every pass preserves the circuit unitary up to global phase (verified by
dense-unitary equivalence in the tests), so the compiled program's ideal
distribution — the yardstick probes are scored against — is unchanged.

Levels
------
* ``0`` — no optimization; the pipeline is bit-identical to a build
  without this module.
* ``1`` — :class:`CancelInversesPass`, :class:`MergeRotationsPass` and
  :class:`Fuse1qRunsPass`, iterated to a fixpoint.
* ``2`` — level 1 plus :class:`TwoQubitRewritePass` (Hadamard-sandwich
  CNOT rewrites), and post-nativization native-gate cleanup
  (:func:`cleanup_native_circuit`) on probe and final executables.

Each pass emits an ``opt.pass`` span, and a finished run adds
``opt.gates_removed`` / ``opt.links_removed`` to the metrics registry.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import Gate
from ..exceptions import CompilationError
from ..obs import runtime as obs

__all__ = [
    "OptimizationReport",
    "PassManager",
    "CancelInversesPass",
    "MergeRotationsPass",
    "Fuse1qRunsPass",
    "TwoQubitRewritePass",
    "optimize_circuit",
    "cleanup_native_circuit",
    "OPTIMIZATION_LEVELS",
]

OPTIMIZATION_LEVELS = (0, 1, 2)

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0
_ATOL = 1e-9

#: Gates diagonal in the computational (Z) basis. Any two diagonal gates
#: commute, a diagonal gate commutes through a CNOT control, and a
#: diagonal gate leaves |0> invariant up to phase.
_DIAGONAL_NAMES = frozenset(
    {"id", "z", "s", "sdg", "t", "tdg", "rz", "phase", "cz", "cphase"}
)

#: Single-qubit gates that commute through a CNOT *target* (X-axis).
_X_AXIS_NAMES = frozenset({"id", "x", "rx"})

#: Rotation families :class:`MergeRotationsPass` merges; the value is the
#: angle period at which the gate returns to identity up to global phase.
_ROTATION_PERIODS = {
    "rx": _TWO_PI,
    "ry": _TWO_PI,
    "rz": _TWO_PI,
    "phase": _TWO_PI,
    "cphase": _TWO_PI,
    "xy": 2.0 * _TWO_PI,
}

#: Two-qubit gates symmetric under qubit exchange.
_SYMMETRIC_NAMES = frozenset({"cz", "swap", "cphase", "xy"})


def _is_zero_mod(angle: float, period: float) -> bool:
    ratio = angle / period
    return abs(ratio - round(ratio)) < _ATOL


def _snap_half_pi(angle: float) -> float:
    """Snap an angle to an exact multiple of pi/2 when within tolerance.

    Keeps merged/fused rotations on the Clifford grid the gate registry's
    predicates test for, instead of drifting off it by accumulated float
    error.
    """
    ratio = angle / _HALF_PI
    nearest = round(ratio)
    if abs(ratio - nearest) < _ATOL:
        return nearest * _HALF_PI
    return angle


def _same_placement(a: Gate, b: Gate) -> bool:
    """Whether *b* acts on the same qubits as *a*, respecting symmetry."""
    if a.qubits == b.qubits:
        return True
    if a.name in _SYMMETRIC_NAMES and b.name in _SYMMETRIC_NAMES:
        return set(a.qubits) == set(b.qubits)
    return False


def _commutes(a: Gate, b: Gate) -> bool:
    """Conservative commutation test for unitary gates sharing qubits.

    Only rules needed by the passes; returning ``False`` is always safe.
    """
    shared = set(a.qubits) & set(b.qubits)
    if not shared:
        return True
    a_diag = a.name in _DIAGONAL_NAMES
    b_diag = b.name in _DIAGONAL_NAMES
    if a_diag and b_diag:
        return True
    for first, second in ((a, b), (b, a)):
        if first.name == "cnot":
            control, target = first.qubits
            if second.name == "cnot":
                other_control, other_target = second.qubits
                # CNOTs commute when they share only controls or only
                # targets.
                if (
                    control != other_target
                    and target != other_control
                ):
                    return True
                return False
            if second.num_qubits == 1:
                qubit = second.qubits[0]
                if qubit == control and second.name in _DIAGONAL_NAMES:
                    return True
                if qubit == target and second.name in _X_AXIS_NAMES:
                    return True
                return False
            if second.name in ("cz", "cphase"):
                # Diagonal two-qubit gates commute through the control.
                return target not in second.qubits
            return False
    if a.num_qubits == 1 and b.num_qubits == 1:
        # Same wire: same-axis rotations commute.
        if a.name == b.name and a.name in ("rx", "ry", "x", "y"):
            return True
        if a.name in _X_AXIS_NAMES and b.name in _X_AXIS_NAMES:
            return True
        return False
    if a.name == "xy" and b.name == "xy":
        return set(a.qubits) == set(b.qubits)
    return False


def _is_inverse_pair(a: Gate, b: Gate) -> bool:
    """Whether ``b . a == identity`` (up to global phase)."""
    if not (a.is_unitary and b.is_unitary):
        return False
    if not _same_placement(a, b):
        return False
    spec = a.spec
    if spec.self_inverse and spec.num_params == 0:
        return a.name == b.name
    if spec.inverse_name is not None:
        return b.name == spec.inverse_name
    if a.name == b.name and a.name in _ROTATION_PERIODS:
        period = _ROTATION_PERIODS[a.name]
        return _is_zero_mod(a.params[0] + b.params[0], period)
    return False


def _is_identity_gate(gate: Gate) -> bool:
    """Whether the gate is identity up to global phase."""
    if gate.name == "id":
        return True
    if gate.name in _ROTATION_PERIODS and len(gate.params) == 1:
        period = _ROTATION_PERIODS[gate.name]
        # phase/cphase identity requires the full phase to vanish, not
        # just a global one; their period already encodes that.
        return _is_zero_mod(gate.params[0], period)
    return False


def _rebuild(
    circuit: QuantumCircuit, instructions: Sequence[Optional[Gate]]
) -> QuantumCircuit:
    rebuilt = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for gate in instructions:
        if gate is not None:
            rebuilt.append(gate)
    return rebuilt


class _Pass:
    """Base class: one rewrite over a circuit, returning a new circuit."""

    name = "pass"

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        raise NotImplementedError


class CancelInversesPass(_Pass):
    """Remove gate/inverse pairs that meet on every shared wire.

    The scan is commutation-aware: a CNOT pair separated only by gates
    that commute with it (diagonal gates on its control, X-axis gates on
    its target, CNOTs sharing only its control or only its target) still
    cancels. Covers CNOT.CNOT, H.H, X.X, CZ.CZ, S.Sdg, T.Tdg and
    exact-inverse rotation pairs.
    """

    name = "cancel_inverses"

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        gates: List[Optional[Gate]] = list(circuit)
        changed = True
        while changed:
            changed = False
            for i, gate in enumerate(gates):
                if gate is None or not gate.is_unitary:
                    continue
                partner = self._find_partner(gates, i, gate)
                if partner is not None:
                    gates[i] = None
                    gates[partner] = None
                    changed = True
        return _rebuild(circuit, gates)

    @staticmethod
    def _find_partner(
        gates: List[Optional[Gate]], start: int, gate: Gate
    ) -> Optional[int]:
        for j in range(start + 1, len(gates)):
            other = gates[j]
            if other is None:
                continue
            if other.is_barrier:
                return None
            if other.is_measurement:
                if other.qubits[0] in gate.qubits:
                    return None
                continue
            if not set(gate.qubits) & set(other.qubits):
                continue
            if _is_inverse_pair(gate, other):
                return j
            if _commutes(gate, other):
                continue
            return None
        return None


class MergeRotationsPass(_Pass):
    """Merge same-axis rotations and drop identity rotations.

    RZ-family rotations merge through anything diagonal (including a CNOT
    control), RX through a CNOT target. Merged angles are snapped back to
    the pi/2 grid so Clifford eligibility is preserved or improved.
    """

    name = "merge_rotations"

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        gates: List[Optional[Gate]] = list(circuit)
        changed = True
        while changed:
            changed = False
            for i, gate in enumerate(gates):
                if gate is None or not gate.is_unitary:
                    continue
                if _is_identity_gate(gate):
                    gates[i] = None
                    changed = True
                    continue
                if gate.name not in _ROTATION_PERIODS:
                    continue
                j = self._find_mergeable(gates, i, gate)
                if j is None:
                    continue
                other = gates[j]
                merged = _snap_half_pi(gate.params[0] + other.params[0])
                gates[j] = None
                if _is_zero_mod(merged, _ROTATION_PERIODS[gate.name]):
                    gates[i] = None
                else:
                    gates[i] = Gate(gate.name, gate.qubits, (merged,))
                changed = True
        return _rebuild(circuit, gates)

    @staticmethod
    def _find_mergeable(
        gates: List[Optional[Gate]], start: int, gate: Gate
    ) -> Optional[int]:
        for j in range(start + 1, len(gates)):
            other = gates[j]
            if other is None:
                continue
            if other.is_barrier:
                return None
            if other.is_measurement:
                if other.qubits[0] in gate.qubits:
                    return None
                continue
            if not set(gate.qubits) & set(other.qubits):
                continue
            if other.name == gate.name and _same_placement(gate, other):
                return j
            if _commutes(gate, other):
                continue
            return None
        return None


class Fuse1qRunsPass(_Pass):
    """Fuse runs of single-qubit gates into an RZ.RX.RZ Euler sandwich.

    Each maximal wire-run of two or more single-qubit unitaries is
    multiplied out and re-synthesized as at most three gates
    (``RZ(a) RX(b) RZ(c)`` in matrix order), with angles snapped to the
    pi/2 grid. The fused form is emitted only when it is strictly
    shorter than the run it replaces (identity runs vanish entirely),
    and is verified against the run's product before emission — a
    decomposition that failed to reproduce the unitary would fall back
    to the original gates rather than miscompile.
    """

    name = "fuse_1q_runs"

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        output: List[Gate] = []
        pending: Dict[int, List[Gate]] = {}

        def flush(qubit: int) -> None:
            run = pending.pop(qubit, None)
            if run:
                output.extend(self._fused(run))

        for gate in circuit:
            if gate.is_barrier:
                for qubit in list(pending):
                    flush(qubit)
                output.append(gate)
                continue
            if gate.is_unitary and gate.num_qubits == 1:
                pending.setdefault(gate.qubits[0], []).append(gate)
                continue
            for qubit in gate.qubits:
                flush(qubit)
            output.append(gate)
        for qubit in list(pending):
            flush(qubit)
        return _rebuild(circuit, output)

    def _fused(self, run: List[Gate]) -> List[Gate]:
        if len(run) < 2:
            return run
        qubit = run[0].qubits[0]
        product = np.eye(2, dtype=complex)
        for gate in run:
            product = gate.matrix() @ product
        candidate = _resynthesize_1q(product, qubit)
        if candidate is None or len(candidate) >= len(run):
            return run
        return candidate


class TwoQubitRewritePass(_Pass):
    """ZX-inspired Hadamard-sandwich rewrites around CNOTs.

    Two terminating rules, each strictly reducing gate count:

    * sandwich: ``H(t) . CNOT(c,t) . H(t) -> CZ(c,t)``, removing two
      gates — and removing the CNOT site, so a link whose CNOTs all
      carry Hadamard sandwiches drops out of the probe budget entirely;
    * flip: ``(H(c) H(t)) . CNOT(c,t) . (H(c) H(t)) -> CNOT(t,c)``
      (the color-change rule applied to both wires), removing four
      Hadamards.

    Sandwiches are applied first: eliminating a probe-budget site is
    worth more than the flip's two extra Hadamards, which nativization
    would reintroduce around the surviving CNOT anyway.
    """

    name = "two_qubit_rewrite"

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        gates = self._apply(list(circuit), mode="sandwich")
        gates = self._apply(gates, mode="flip")
        return _rebuild(circuit, gates)

    def _apply(
        self, gates: List[Optional[Gate]], mode: str
    ) -> List[Optional[Gate]]:
        changed = True
        while changed:
            changed = False
            neighbors = _WireNeighbors(gates)
            for i, gate in enumerate(gates):
                if gate is None or gate.name != "cnot":
                    continue
                control, target = gate.qubits
                before_t = neighbors.previous(i, target)
                after_t = neighbors.next(i, target)
                if not (_is_h(gates, before_t) and _is_h(gates, after_t)):
                    continue
                if mode == "sandwich":
                    gates[before_t] = None
                    gates[after_t] = None
                    gates[i] = Gate("cz", (control, target))
                else:
                    before_c = neighbors.previous(i, control)
                    after_c = neighbors.next(i, control)
                    if not (
                        _is_h(gates, before_c) and _is_h(gates, after_c)
                    ):
                        continue
                    gates[before_c] = None
                    gates[after_c] = None
                    gates[before_t] = None
                    gates[after_t] = None
                    gates[i] = Gate("cnot", (target, control))
                changed = True
                break
        return gates


def _is_h(gates: List[Optional[Gate]], index: Optional[int]) -> bool:
    return (
        index is not None
        and gates[index] is not None
        and gates[index].name == "h"
    )


class _WireNeighbors:
    """Previous/next instruction index per wire, barriers blocking."""

    def __init__(self, gates: List[Optional[Gate]]) -> None:
        self._prev: Dict[int, Dict[int, int]] = {}
        self._next: Dict[int, Dict[int, int]] = {}
        last: Dict[int, int] = {}
        barrier_seen = False
        for i, gate in enumerate(gates):
            if gate is None:
                continue
            if gate.is_barrier:
                # A barrier separates wire neighbors on every qubit.
                last = {}
                barrier_seen = True
                continue
            for qubit in gate.qubits:
                if qubit in last:
                    self._prev.setdefault(i, {})[qubit] = last[qubit]
                    self._next.setdefault(last[qubit], {})[qubit] = i
                last[qubit] = i
        self._barrier_seen = barrier_seen

    def previous(self, index: int, qubit: int) -> Optional[int]:
        return self._prev.get(index, {}).get(qubit)

    def next(self, index: int, qubit: int) -> Optional[int]:
        return self._next.get(index, {}).get(qubit)


def _zyz_angles(unitary: np.ndarray) -> Tuple[float, float, float]:
    """ZYZ Euler angles of a 2x2 unitary: ``U ~ RZ(phi) RY(theta) RZ(lam)``."""
    det = np.linalg.det(unitary)
    su2 = unitary / cmath.sqrt(det)
    theta = 2.0 * math.atan2(abs(su2[1, 0]), abs(su2[0, 0]))
    if abs(su2[1, 0]) < _ATOL:
        phi_plus_lam = 2.0 * cmath.phase(su2[1, 1])
        return phi_plus_lam, 0.0, 0.0
    if abs(su2[0, 0]) < _ATOL:
        phi_minus_lam = 2.0 * cmath.phase(su2[1, 0])
        return phi_minus_lam, math.pi, 0.0
    phi_plus_lam = 2.0 * cmath.phase(su2[1, 1])
    phi_minus_lam = 2.0 * cmath.phase(su2[1, 0])
    phi = (phi_plus_lam + phi_minus_lam) / 2.0
    lam = (phi_plus_lam - phi_minus_lam) / 2.0
    return phi, theta, lam


def _resynthesize_1q(
    unitary: np.ndarray, qubit: int
) -> Optional[List[Gate]]:
    """Shortest RZ/RX realization of a 1q unitary, or ``None`` on failure.

    Uses ``RX(b) = RZ(-pi/2) RY(b) RZ(pi/2)`` inside the ZYZ form to get
    the ZXZ sandwich, drops identity factors, snaps angles to the pi/2
    grid, and verifies the result reproduces the unitary up to global
    phase before returning it.
    """
    identity_overlap = abs(np.trace(unitary)) / 2.0
    if abs(identity_overlap - 1.0) < _ATOL:
        return []
    phi, theta, lam = _zyz_angles(unitary)
    # RX(theta) equals RZ(-pi/2) RY(theta) RZ(pi/2) up to the sign
    # convention of the axes; try both orientations (and the reflected
    # theta) and keep whichever reproduces the unitary.
    for z_shift, x_angle in (
        (_HALF_PI, theta),
        (-_HALF_PI, theta),
        (_HALF_PI, -theta),
        (-_HALF_PI, -theta),
    ):
        angles = (
            _snap_half_pi(lam - z_shift),
            _snap_half_pi(x_angle),
            _snap_half_pi(phi + z_shift),
        )
        names = ("rz", "rx", "rz")
        gates = [
            Gate(name, (qubit,), (angle,))
            for name, angle in zip(names, angles)
            if not _is_zero_mod(angle, _TWO_PI)
        ]
        realized = np.eye(2, dtype=complex)
        for gate in gates:
            realized = gate.matrix() @ realized
        overlap = abs(np.trace(realized.conj().T @ unitary)) / 2.0
        if abs(overlap - 1.0) < 1e-7:
            return gates
    return None


class OptimizationReport:
    """What one :meth:`PassManager.run` did to a circuit."""

    def __init__(self) -> None:
        self.iterations = 0
        self.gates_before = 0
        self.gates_after = 0
        self.links_before = 0
        self.links_after = 0
        self.per_pass: Dict[str, int] = {}

    @property
    def gates_removed(self) -> int:
        return max(0, self.gates_before - self.gates_after)

    @property
    def links_removed(self) -> int:
        return max(0, self.links_before - self.links_after)

    def to_dict(self) -> Dict[str, object]:
        return {
            "iterations": self.iterations,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "links_before": self.links_before,
            "links_after": self.links_after,
            "gates_removed": self.gates_removed,
            "links_removed": self.links_removed,
            "per_pass": dict(self.per_pass),
        }


def _distinct_pairs(circuit: QuantumCircuit) -> Set[Tuple[int, int]]:
    return set(circuit.two_qubit_pairs())


class PassManager:
    """Run a pass list to a fixpoint, with per-pass tracing.

    Args:
        passes: Pass instances, applied in order each iteration.
        max_iterations: Safety bound on fixpoint iterations.
    """

    def __init__(
        self, passes: Sequence[_Pass], max_iterations: int = 16
    ) -> None:
        self.passes = list(passes)
        self.max_iterations = max_iterations

    @classmethod
    def for_level(cls, level: int) -> "PassManager":
        """The pass pipeline of an ``optimization_level`` setting."""
        if level not in OPTIMIZATION_LEVELS:
            raise CompilationError(
                f"optimization_level must be one of {OPTIMIZATION_LEVELS}, "
                f"got {level!r}"
            )
        if level == 0:
            return cls([])
        passes: List[_Pass] = []
        if level >= 2:
            passes.append(TwoQubitRewritePass())
        passes.extend(
            [CancelInversesPass(), MergeRotationsPass(), Fuse1qRunsPass()]
        )
        return cls(passes)

    def run(
        self, circuit: QuantumCircuit
    ) -> Tuple[QuantumCircuit, OptimizationReport]:
        """Optimize *circuit*; returns the new circuit plus a report."""
        report = OptimizationReport()
        report.gates_before = sum(1 for _ in circuit.gates())
        report.links_before = len(_distinct_pairs(circuit))
        current = circuit
        if self.passes:
            tracer = obs.active_tracer()
            for _ in range(self.max_iterations):
                report.iterations += 1
                before_iteration = len(current)
                for opt_pass in self.passes:
                    span = (
                        tracer.span(
                            "opt.pass",
                            pass_name=opt_pass.name,
                            gates=len(current),
                        )
                        if tracer
                        else obs.NULL_SPAN
                    )
                    with span:
                        size_before = len(current)
                        current = opt_pass.run(current)
                        removed = size_before - len(current)
                        report.per_pass[opt_pass.name] = (
                            report.per_pass.get(opt_pass.name, 0) + removed
                        )
                        if tracer:
                            span.set(removed=removed)
                if len(current) == before_iteration:
                    break
        report.gates_after = sum(1 for _ in current.gates())
        report.links_after = len(_distinct_pairs(current))
        registry = obs.active_registry()
        if registry is not None and self.passes:
            registry.counter("opt.runs").add(1)
            registry.counter("opt.gates_removed").add(report.gates_removed)
            registry.counter("opt.links_removed").add(report.links_removed)
        return current, report


def optimize_circuit(
    circuit: QuantumCircuit, level: int
) -> Tuple[QuantumCircuit, OptimizationReport]:
    """Optimize a logical circuit at *level* (the :func:`transpile` hook)."""
    return PassManager.for_level(level).run(circuit)


def cleanup_native_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Peephole cleanup of a *nativized* circuit (level 2 only).

    Works entirely inside the native vocabulary, so the output is still
    a valid device executable:

    * RZ gates sink through diagonal two-qubit gates (CZ, CPHASE) and
      merge; a run that reaches a measurement — or started on an
      untouched ``|0>`` wire, where RZ is a global phase — is dropped.
    * Adjacent RX gates merge when the sum stays on the native
      ``k * pi/2`` grid (full turns vanish).
    Exact on the ideal distribution: Z-rotations before measurement and
    on ``|0>`` never change computational-basis probabilities. Probe and
    final executables shrink by the same rules, which is where the
    end-to-end compile wall-time win at level 2 comes from — fewer
    native operations per simulated probe.
    """
    output: List[Gate] = []
    pending_rz: Dict[int, float] = {}
    # A wire is "virgin" while only diagonal gates have touched it: its
    # state is still |0> and any accumulated RZ is a global phase.
    virgin: Dict[int, bool] = {}

    def is_virgin(qubit: int) -> bool:
        return virgin.get(qubit, True)

    def flush(qubit: int) -> None:
        angle = pending_rz.pop(qubit, 0.0)
        if _is_zero_mod(angle, _TWO_PI) or is_virgin(qubit):
            return
        output.append(Gate("rz", (qubit,), (_snap_half_pi(angle),)))

    def emit(gate: Gate) -> None:
        if gate.name == "rx" and output:
            previous = output[-1]
            if (
                previous.name == "rx"
                and previous.qubits == gate.qubits
            ):
                merged = previous.params[0] + gate.params[0]
                ratio = merged / _HALF_PI
                if abs(ratio - round(ratio)) < _ATOL:
                    output.pop()
                    if not _is_zero_mod(merged, _TWO_PI):
                        output.append(
                            Gate(
                                "rx",
                                gate.qubits,
                                (_snap_half_pi(merged),),
                            )
                        )
                    return
        output.append(gate)

    for gate in circuit:
        if gate.is_barrier:
            for qubit in list(pending_rz):
                flush(qubit)
            output.append(gate)
            continue
        if gate.is_measurement:
            # Z-rotations immediately before measurement are invisible.
            pending_rz.pop(gate.qubits[0], None)
            virgin[gate.qubits[0]] = False
            output.append(gate)
            continue
        if gate.name == "rz":
            pending_rz[gate.qubits[0]] = (
                pending_rz.get(gate.qubits[0], 0.0) + gate.params[0]
            )
            continue
        if gate.name in ("cz", "cphase"):
            # Diagonal: pending RZs commute through; |0> wires stay |0>.
            emit(gate)
            continue
        for qubit in gate.qubits:
            flush(qubit)
            virgin[qubit] = False
        emit(gate)
    if circuit.has_measurements:
        # Unmeasured trailing Z-rotations can't affect any outcome.
        pending_rz.clear()
    else:
        for qubit in list(pending_rz):
            flush(qubit)
    return _rebuild(circuit, output)
