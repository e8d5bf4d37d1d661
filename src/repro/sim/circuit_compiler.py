"""Circuit lowering and layer fusion for the distribution pipeline.

The density-matrix simulator pays ``O(4^n)`` per operator contraction no
matter how small the operator is, so the *number* of contractions — not
their individual size — is what a probe workload buys with its wall
time. This module flattens a circuit through the device's
``operation_compiler`` hook into a stream of fused superoperators and
then performs **layer fusion**: runs of consecutive operators acting on
the same qubit set collapse into one superoperator, and single-qubit
tails (the RZ/RX sandwiches nativization wraps around every entangling
pulse) are embedded into their neighbouring two-qubit superoperator.
The contraction count drops before any state work happens.

Fusion is exact up to floating-point association: the fused
superoperator is the matrix product of its parts, so distributions
agree with the unfused per-gate path to ~1e-15 (pinned by
``tests/test_sim_cache.py``); shot counts agree exactly in practice
because sampling boundaries are never within that slack.

:func:`circuit_fingerprint` (the dedup-store key) identifies circuits
by content, excluding their names: probe candidates are
content-addressed, not label-addressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from .channels import KrausChannel, Superoperator

__all__ = [
    "LoweredOp",
    "LoweredCircuit",
    "CircuitCompiler",
    "circuit_fingerprint",
]


def circuit_fingerprint(circuit: QuantumCircuit) -> Tuple:
    """Hashable content identity of a circuit (its name excluded).

    Includes every instruction — measures and barriers too, so the
    measured-register definition is part of the identity — but not the
    circuit's label, so renamed probe copies share dedup-store entries.
    """
    return (
        circuit.num_qubits,
        tuple((g.name, g.qubits, g.params) for g in circuit),
    )


@dataclass(frozen=True)
class LoweredOp:
    """One fused contraction: a superoperator on a fixed qubit tuple.

    Attributes:
        superop: The channel to contract against the state.
        qubits: Local (compact-register) qubits it acts on, in the
            superoperator's qubit order.
    """

    superop: Superoperator
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class LoweredCircuit:
    """A circuit lowered to fused superoperators.

    Attributes:
        num_qubits: Compact register width.
        operations: The fused contraction stream, in order.
        raw_op_count: Contractions the unfused stream would have cost
            (for fusion-efficiency reporting).
    """

    num_qubits: int
    operations: Tuple[LoweredOp, ...]
    raw_op_count: int


class CircuitCompiler:
    """Lower circuits into layer-fused operator streams.

    Args:
        operation_compiler: The per-instruction hook the device already
            uses for its fused per-gate fast path (see
            :class:`~repro.sim.density_matrix.DensityMatrixSimulator`).
            For an instruction it may return a sequence of
            ``(operator, qubits)`` pairs or ``None`` to fall back.
        noise_callback: Fallback noise hook for instructions the
            operation compiler declines; channels it returns are
            vectorized into superoperators.
    """

    def __init__(
        self,
        operation_compiler: Optional[Callable] = None,
        noise_callback: Optional[Callable] = None,
    ) -> None:
        self.operation_compiler = operation_compiler
        self.noise_callback = noise_callback

    # ------------------------------------------------------------------
    def lower(self, circuit: QuantumCircuit) -> LoweredCircuit:
        """Flatten *circuit* into a fused operator stream."""
        raw = self._raw_stream(circuit)
        return LoweredCircuit(
            num_qubits=circuit.num_qubits,
            operations=tuple(_fused(raw)),
            raw_op_count=len(raw),
        )

    # ------------------------------------------------------------------
    def _raw_stream(self, circuit: QuantumCircuit) -> List[LoweredOp]:
        """One LoweredOp per (operator, qubits) pair, pre-fusion."""
        stream: List[LoweredOp] = []
        for gate in circuit:
            if not gate.is_unitary:
                continue  # barriers/measures do not evolve the state
            compiled = (
                self.operation_compiler(gate)
                if self.operation_compiler is not None
                else None
            )
            if compiled is not None:
                for operator, qubits in compiled:
                    stream.append(
                        LoweredOp(_as_superoperator(operator), tuple(qubits))
                    )
                continue
            stream.append(
                LoweredOp(
                    Superoperator.from_unitary(gate.matrix(), gate.name),
                    gate.qubits,
                )
            )
            if self.noise_callback is not None:
                for channel, qubits in self.noise_callback(gate):
                    stream.append(
                        LoweredOp(_as_superoperator(channel), tuple(qubits))
                    )
        return stream


def _fused(stream: List[LoweredOp]) -> List[LoweredOp]:
    """Greedy left-to-right layer fusion over the raw stream."""
    fused: List[LoweredOp] = []
    for op in stream:
        if fused:
            merged = _try_fuse(fused[-1], op)
            if merged is not None:
                fused[-1] = merged
                continue
        fused.append(op)
    return fused


def _as_superoperator(operator: object) -> Superoperator:
    """Vectorize whatever the compiler/noise hooks hand back."""
    if isinstance(operator, Superoperator):
        return operator
    if isinstance(operator, KrausChannel):
        return Superoperator.from_kraus(operator)
    return Superoperator.from_unitary(np.asarray(operator, dtype=complex))


def _try_fuse(pending: LoweredOp, nxt: LoweredOp) -> Optional[LoweredOp]:
    """Fuse *nxt* onto *pending* when their qubit supports allow it.

    Rules (``pending`` is applied first):

    * identical qubit tuples — compose directly;
    * a single-qubit op adjacent to a two-qubit op whose pair contains
      its qubit — embed the 1q map into the 2q space, then compose.

    Anything else (disjoint or order-swapped supports) keeps its own
    contraction: correctness over aggressiveness.
    """
    if nxt.qubits == pending.qubits:
        superop = pending.superop.then(nxt.superop)
        qubits = pending.qubits
    elif (
        len(nxt.qubits) == 1
        and len(pending.qubits) == 2
        and nxt.qubits[0] in pending.qubits
    ):
        position = pending.qubits.index(nxt.qubits[0])
        superop = pending.superop.then(nxt.superop.embed(position, 2))
        qubits = pending.qubits
    elif (
        len(pending.qubits) == 1
        and len(nxt.qubits) == 2
        and pending.qubits[0] in nxt.qubits
    ):
        position = nxt.qubits.index(pending.qubits[0])
        superop = pending.superop.embed(position, 2).then(nxt.superop)
        qubits = nxt.qubits
    else:
        return None
    return LoweredOp(superop, qubits)
