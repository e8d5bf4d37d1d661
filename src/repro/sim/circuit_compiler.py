"""Circuit lowering and layer fusion for the simulation cache hierarchy.

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

Every lowered operator carries a content *fingerprint* — the
``(name, qubits, params)`` identity of the instructions it was fused
from — and the stream carries a chain of rolling prefix hashes over
those fingerprints. Two circuits that share an instruction prefix (the
``2L`` mass-replacement probe candidates of a localized search differ
from the baseline only at one link's sites) produce identical lowered
prefixes and identical hash chains, which is what lets
:class:`~repro.sim.sim_cache.PrefixStateCache` replay the shared prefix
once. Fingerprints deliberately exclude the circuit *name*: probe
candidates are content-addressed, not label-addressed.

Fusion is exact up to floating-point association: the fused
superoperator is the matrix product of its parts, so distributions
agree with the unfused stream to ~1e-15 (pinned by
``tests/test_sim_cache.py``); shot counts agree exactly in practice
because sampling boundaries are never within that slack.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import Gate
from .channels import KrausChannel, Superoperator

__all__ = [
    "LoweredOp",
    "LoweredCircuit",
    "CircuitCompiler",
    "circuit_fingerprint",
    "instruction_hash_chain",
]

_HASH_BYTES = 16


def circuit_fingerprint(circuit: QuantumCircuit) -> Tuple:
    """Hashable content identity of a circuit (its name excluded).

    Includes every instruction — measures and barriers too, so the
    measured-register definition is part of the identity — but not the
    circuit's label, so renamed probe copies share cache entries.
    """
    return (
        circuit.num_qubits,
        tuple((g.name, g.qubits, g.params) for g in circuit),
    )


def instruction_hash_chain(
    circuit: QuantumCircuit, hash_seed: Tuple = ()
) -> Tuple[bytes, ...]:
    """Rolling content hash after each *instruction* (no lowering).

    The routing-side sibling of :class:`CircuitCompiler`'s lowered
    prefix chain: the same fingerprint discipline — content atoms
    ``(name, qubits, params)``, circuit label excluded, ``blake2b`` so
    keys are stable across processes and runs — but computed straight
    off the instruction stream, with no device hooks and no matrix work.
    Two circuits share a chain prefix exactly when they share an
    instruction prefix, which is what the fleet router's affinity score
    measures (:mod:`repro.fleet.router`).
    """
    digest = hashlib.blake2b(
        repr(("instructions", circuit.num_qubits, tuple(hash_seed))).encode(),
        digest_size=_HASH_BYTES,
    ).digest()
    chain: List[bytes] = []
    for gate in circuit:
        hasher = hashlib.blake2b(digest, digest_size=_HASH_BYTES)
        hasher.update(repr((gate.name, gate.qubits, gate.params)).encode())
        digest = hasher.digest()
        chain.append(digest)
    return tuple(chain)


@dataclass(frozen=True)
class LoweredOp:
    """One fused contraction: a superoperator on a fixed qubit tuple.

    Attributes:
        superop: The channel to contract against the state.
        qubits: Local (compact-register) qubits it acts on, in the
            superoperator's qubit order.
        fingerprint: Tuple of the ``(name, qubits, params, part)`` atoms
            this operator was fused from, in application order — the
            content identity the prefix hash chain is built over.
    """

    superop: Superoperator
    qubits: Tuple[int, ...]
    fingerprint: Tuple


@dataclass(frozen=True)
class LoweredCircuit:
    """A circuit lowered to fused superoperators plus its hash chain.

    Attributes:
        num_qubits: Compact register width.
        operations: The fused contraction stream, in order.
        prefix_hashes: ``prefix_hashes[i]`` identifies the state after
            applying ``operations[0..i]`` — the key a prefix snapshot of
            that state is stored under.
        raw_op_count: Contractions the unfused stream would have cost
            (for fusion-efficiency reporting).
    """

    num_qubits: int
    operations: Tuple[LoweredOp, ...]
    prefix_hashes: Tuple[bytes, ...]
    raw_op_count: int


class CircuitCompiler:
    """Lower circuits into fingerprinted, layer-fused operator streams.

    Args:
        operation_compiler: The per-instruction hook the device already
            uses for its fused per-gate fast path (see
            :class:`~repro.sim.density_matrix.DensityMatrixSimulator`).
            For an instruction it may return a sequence of
            ``(operator, qubits)`` pairs or ``None`` to fall back.
        noise_callback: Fallback noise hook for instructions the
            operation compiler declines; channels it returns are
            vectorized into superoperators.
        fuse: Enable layer fusion (on by default; off lowers one
            operator per instruction part, for A/B testing).
        hash_seed: Extra context mixed into the prefix hash chain —
            the device passes the physical qubit placement here so
            identical compact circuits on different physical qubits
            never share prefix keys.
        product_cache: Optional mutable mapping memoizing fused
            superoperator products across lowerings. Probe variants
            share most of their instruction stream, so the same
            ``embed``/``then`` matrix products recur in every lowering;
            keys embed ``hash_seed`` (the placement) because equal
            compact atoms under different physical qubits carry
            different noise. The owner must flush it on drift.
    """

    def __init__(
        self,
        operation_compiler: Optional[Callable] = None,
        noise_callback: Optional[Callable] = None,
        fuse: bool = True,
        hash_seed: Tuple = (),
        product_cache: Optional[dict] = None,
    ) -> None:
        self.operation_compiler = operation_compiler
        self.noise_callback = noise_callback
        self.fuse = fuse
        self.hash_seed = tuple(hash_seed)
        self.product_cache = product_cache

    # ------------------------------------------------------------------
    def lower(self, circuit: QuantumCircuit) -> LoweredCircuit:
        """Flatten *circuit* into a fused, fingerprinted operator stream."""
        raw = self._raw_stream(circuit)
        operations = self._fused(raw) if self.fuse else raw
        hashes = self._hash_chain(circuit.num_qubits, operations)
        return LoweredCircuit(
            num_qubits=circuit.num_qubits,
            operations=tuple(operations),
            prefix_hashes=hashes,
            raw_op_count=len(raw),
        )

    # ------------------------------------------------------------------
    def _raw_stream(self, circuit: QuantumCircuit) -> List[LoweredOp]:
        """One LoweredOp per (operator, qubits) pair, pre-fusion."""
        stream: List[LoweredOp] = []
        for gate in circuit:
            if not gate.is_unitary:
                continue  # barriers/measures do not evolve the state
            atom = (gate.name, gate.qubits, gate.params)
            compiled = (
                self.operation_compiler(gate)
                if self.operation_compiler is not None
                else None
            )
            if compiled is not None:
                for part, (operator, qubits) in enumerate(compiled):
                    stream.append(
                        LoweredOp(
                            _as_superoperator(operator),
                            tuple(qubits),
                            (atom + (part,),),
                        )
                    )
                continue
            stream.append(
                LoweredOp(
                    Superoperator.from_unitary(gate.matrix(), gate.name),
                    gate.qubits,
                    (atom + ("ideal",),),
                )
            )
            if self.noise_callback is not None:
                for part, (channel, qubits) in enumerate(
                    self.noise_callback(gate)
                ):
                    stream.append(
                        LoweredOp(
                            _as_superoperator(channel),
                            tuple(qubits),
                            (atom + ("noise", part),),
                        )
                    )
        return stream

    def _fused(self, stream: List[LoweredOp]) -> List[LoweredOp]:
        """Greedy left-to-right layer fusion over the raw stream."""
        fused: List[LoweredOp] = []
        for op in stream:
            if fused:
                merged = self._try_fuse(fused[-1], op)
                if merged is not None:
                    fused[-1] = merged
                    continue
            fused.append(op)
        return fused

    def _try_fuse(
        self, pending: LoweredOp, nxt: LoweredOp
    ) -> Optional[LoweredOp]:
        """Memoizing wrapper around :func:`_try_fuse`.

        The fused product is a pure function of the two operands'
        fingerprints (plus placement, carried in ``hash_seed``), so when
        a product cache is attached the matrix work happens once per
        distinct fusion within an epoch.
        """
        if self.product_cache is None:
            return _try_fuse(pending, nxt)
        key = (
            self.hash_seed,
            pending.qubits,
            pending.fingerprint,
            nxt.qubits,
            nxt.fingerprint,
        )
        try:
            merged = self.product_cache[key]
        except KeyError:
            merged = _try_fuse(pending, nxt)
            self.product_cache[key] = merged
        return merged

    def _hash_chain(
        self, num_qubits: int, operations: List[LoweredOp]
    ) -> Tuple[bytes, ...]:
        """Rolling content hash after each fused operator.

        ``blake2b`` (not Python's salted ``hash``) keeps keys stable
        across processes and runs.
        """
        digest = hashlib.blake2b(
            repr(("lowered", num_qubits, self.hash_seed)).encode(),
            digest_size=_HASH_BYTES,
        ).digest()
        chain: List[bytes] = []
        for op in operations:
            hasher = hashlib.blake2b(digest, digest_size=_HASH_BYTES)
            hasher.update(repr(op.fingerprint).encode())
            digest = hasher.digest()
            chain.append(digest)
        return tuple(chain)


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
    return LoweredOp(superop, qubits, pending.fingerprint + nxt.fingerprint)
