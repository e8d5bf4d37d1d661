"""Prepared executables and their layer-fusion plan.

The density-matrix simulator pays ``O(4^n)`` per operator contraction no
matter how small the operator is, so the *number* of contractions — not
their individual size — is what a job buys with its wall time. A device
therefore prepares each circuit once
(:meth:`~repro.device.device.RigettiAspenDevice.prepare`) into an
:class:`Executable`: the validated compact instructions, the job
duration, the distinct per-gate channels a job must build, and a
**fusion plan** that collapses the stream of per-gate channels into few
contractions. Everything in it depends on the circuit and on the
device's structure only, never on the drift state, so the device
memoizes it. Per job only numeric work is left: build the channels at
the current parameter values, :func:`fold` them along the plan, evolve
the state and apply readout.

The plan is greedy and left to right over the per-gate stream (the
pending block is applied first):

* identical qubit tuples — compose directly;
* a single-qubit op after a two-qubit block that contains its qubit —
  embed the single-qubit map into the block's space, then compose;
* a two-qubit op after a single-qubit block on one of its qubits —
  embed the accumulated single-qubit block, then apply the two-qubit op.

Anything else (disjoint or order-swapped supports) starts a new block.
:func:`fold` evaluates each block with the same matrix products in the
same association (``later @ earlier``) as composing one superoperator per
step would, so the fused maps are bit-identical to that composition
(pinned against the per-gate oracle in
``tests/test_prepared_executable.py``); against the Kraus oracle, which
applies each operator separately, fusion reassociates floating-point
products (~1e-15 relative slack, pinned in ``tests/test_sim_cache.py``).
"""

from __future__ import annotations

import hashlib
import marshal
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

import numpy as np

from ..circuit.circuit import QuantumCircuit
from .channels import embedded_matrix

__all__ = ["Executable", "circuit_digest", "fusion_plan", "fold"]

#: One compact instruction: ``(name, local qubits, params)``.
Instruction = Tuple[str, Tuple[int, ...], Tuple[float, ...]]
#: One fused contraction: its local qubits and its steps, flattened as
#: ``(kind, channel index, position, kind, channel index, ...)``.
Block = Tuple[Tuple[int, ...], Tuple[int, ...]]

# Step kinds. ``M`` is a channel's matrix, ``E`` that matrix embedded at
# ``position`` of the two-qubit block, ``acc`` the block so far.
_START = 0  # acc = M
_START_EMBEDDED = 1  # acc = E
_THEN = 2  # acc = M @ acc
_THEN_EMBEDDED = 3  # acc = E @ acc
_EMBED_THEN = 4  # acc = M @ (acc embedded at position)


class Executable(NamedTuple):
    """A circuit prepared for one device structure.

    It holds only ints, floats, strings, tuples and one digest — no
    gates and no arrays — so it is immutable, and a device and its
    clones share it.

    Attributes:
        digest: 16-byte content digest of the circuit's physical
            instructions, its name excluded: the device's memo key and
            the content part of the dedup-store key (it covers placement
            and instructions).
        qubits: The physical qubits the circuit touches, sorted; compact
            qubit ``i`` is ``qubits[i]``.
        instructions: The compact instructions, barriers included; on a
            device with idle noise, in moment order with an
            ``idle(duration)`` marker on every wire a moment leaves idle
            (and no barriers).
        measured: The measured compact qubits in first-measurement
            order: the output register.
        duration_us: Critical-path duration of one shot.
        channel_keys: The distinct per-gate channel keys a job builds.
        blocks: The fusion plan, one entry per fused contraction, in
            order; crosstalk spectator pairs appear as steps on their
            ``(pulsed, spectator)`` qubits.
    """

    digest: bytes
    qubits: Tuple[int, ...]
    instructions: Tuple[Instruction, ...]
    measured: Tuple[int, ...]
    duration_us: float
    channel_keys: Tuple[Hashable, ...]
    blocks: Tuple[Block, ...]


def circuit_digest(circuit: QuantumCircuit) -> bytes:
    """Content digest of a circuit's instructions (its name excluded).

    Every instruction counts — measures and barriers too, so the output
    register is part of the identity — but not the label, so renamed
    probe copies share one executable and one dedup-store entry.
    Marshal format 2 writes no back-references, so equal content always
    serializes to equal bytes; the digest is the first 16 bytes of their
    SHA-256.
    """
    content = tuple(
        [(gate.name, gate.qubits, gate.params) for gate in circuit]
    )
    return hashlib.sha256(marshal.dumps(content, 2)).digest()[:16]


def fusion_plan(
    stream: Sequence[Tuple[int, Tuple[int, ...]]]
) -> Tuple[Block, ...]:
    """Greedy left-to-right layer fusion of ``(channel, qubits)`` ops.

    A single-qubit block of one channel that meets a two-qubit op is
    recorded as that channel embedded (``_START_EMBEDDED``), so a job
    embeds each distinct (channel, position) pair once.
    """
    blocks: List[list] = []
    for channel, qubits in stream:
        if blocks:
            block = blocks[-1]
            pending, steps = block
            if qubits == pending:
                steps += (_THEN, channel, -1)
                continue
            if (
                len(qubits) == 1
                and len(pending) == 2
                and qubits[0] in pending
            ):
                steps += (_THEN_EMBEDDED, channel, pending.index(qubits[0]))
                continue
            if (
                len(pending) == 1
                and len(qubits) == 2
                and pending[0] in qubits
            ):
                position = qubits.index(pending[0])
                if len(steps) == 3:
                    steps[0], steps[2] = _START_EMBEDDED, position
                    steps += (_THEN, channel, -1)
                else:
                    steps += (_EMBED_THEN, channel, position)
                block[0] = qubits
                continue
        blocks.append([qubits, [_START, channel, -1]])
    return tuple((qubits, tuple(steps)) for qubits, steps in blocks)


def fold(
    blocks: Sequence[Block], matrices: Sequence[np.ndarray]
) -> Iterator[Tuple[Tuple[int, ...], np.ndarray]]:
    """Each block's fused superoperator matrix, with its qubits, in order.

    ``matrices[i]`` is channel ``i``'s superoperator matrix. Each
    distinct (channel, position) embedding is computed once per call.
    """
    embedded: Dict[Tuple[int, int], np.ndarray] = {}

    def embed(channel: int, position: int) -> np.ndarray:
        matrix = embedded.get((channel, position))
        if matrix is None:
            matrix = embedded[(channel, position)] = embedded_matrix(
                matrices[channel], position, 2
            )
        return matrix

    for qubits, steps in blocks:
        acc = None
        walk = iter(steps)
        for kind, channel, position in zip(walk, walk, walk):
            if kind == _THEN:
                acc = matrices[channel] @ acc
            elif kind == _THEN_EMBEDDED:
                acc = embed(channel, position) @ acc
            elif kind == _START:
                acc = matrices[channel]
            elif kind == _START_EMBEDDED:
                acc = embed(channel, position)
            else:
                acc = matrices[channel] @ embedded_matrix(acc, position, 2)
        yield qubits, acc
