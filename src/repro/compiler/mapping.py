"""Qubit mapping: allocate physical qubits to program qubits.

Two layout strategies, mirroring the paper's compilation pipeline
(Fig. 2a, step 1):

* :func:`trivial_layout` — a BFS-connected region starting from a seed
  qubit, logical qubits assigned in BFS order. Deterministic and
  adequate for unit tests.
* :func:`noise_adaptive_layout` — the Murali-style noise-adaptive
  allocation the paper's baseline builds on: score every BFS region by
  the calibrated quality of its links and readout, weight physical
  qubits by how much the program uses each logical qubit, and take the
  best region.

Both return a :class:`Layout` mapping logical -> physical ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit
from ..device.calibration import CalibrationData
from ..device.device import RigettiAspenDevice
from ..device.topology import Topology, make_link
from ..exceptions import CalibrationError, CompilationError, DeviceError

__all__ = ["Layout", "trivial_layout", "noise_adaptive_layout"]


@dataclass(frozen=True)
class Layout:
    """An injective map from logical qubits to physical qubit ids."""

    physical: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.physical)) != len(self.physical):
            raise CompilationError("layout assigns a physical qubit twice")

    def __len__(self) -> int:
        return len(self.physical)

    def phys(self, logical: int) -> int:
        return self.physical[logical]

    def logical_of(self) -> Dict[int, int]:
        return {phys: logical for logical, phys in enumerate(self.physical)}

    def as_mapping(self) -> List[int]:
        """For :meth:`QuantumCircuit.remap_qubits`."""
        return list(self.physical)


#: A two-qubit gate's logical operands, in program order.
Pair = Tuple[int, int]


def _interaction_counts(pairs: Sequence[Pair], width: int) -> Dict[int, int]:
    """How many two-qubit gates touch each logical qubit."""
    counts: Dict[int, int] = {q: 0 for q in range(width)}
    for pair in pairs:
        for qubit in pair:
            counts[qubit] += 1
    return counts


def trivial_layout(
    circuit: QuantumCircuit,
    topology: Topology,
    seed_qubit: Optional[int] = None,
) -> Layout:
    """Assign logical qubits to a BFS region around *seed_qubit*."""
    seed = seed_qubit if seed_qubit is not None else topology.qubits[0]
    region = topology.connected_subgraph_qubits(seed, circuit.num_qubits)
    return Layout(tuple(region))


def _region_score(
    region: Sequence[int],
    device: RigettiAspenDevice,
    calibration: CalibrationData,
) -> float:
    """Average calibrated quality of a candidate region.

    Scores each in-region link by its best calibrated two-qubit fidelity
    and each qubit by readout fidelity; regions with no internal links
    score zero (they cannot host any two-qubit gate without routing out).
    """
    region_set = set(region)
    link_scores: List[float] = []
    for qubit_a in region:
        for qubit_b in device.topology.neighbors(qubit_a):
            if qubit_b in region_set and qubit_a < qubit_b:
                link = make_link(qubit_a, qubit_b)
                gates = calibration.gates_calibrated_on(link)
                if gates:
                    link_scores.append(
                        max(
                            calibration.two_qubit_fidelity(link, g)
                            for g in gates
                        )
                    )
    if not link_scores:
        return 0.0
    readout_scores = []
    for qubit in region:
        try:
            readout_scores.append(calibration.readout_fidelity(qubit))
        except CalibrationError:
            readout_scores.append(1.0)
    link_avg = sum(link_scores) / len(link_scores)
    readout_avg = sum(readout_scores) / len(readout_scores)
    return link_avg * readout_avg


def _routing_cost(
    pairs: Sequence[Pair],
    topology: Topology,
    physical: Sequence[int],
    bound: Optional[int],
) -> Optional[int]:
    """SWAPs the greedy router would insert for this assignment.

    Cheap simulation of the router's behaviour: walk the two-qubit gates,
    move the first operand along shortest paths, count hops. Returns
    ``None`` as soon as the count exceeds *bound*; the count never
    decreases along the walk, so the full count would exceed it too.
    """
    position = list(physical)
    swaps = 0
    for a, b in pairs:
        if topology.has_link(position[a], position[b]):
            continue
        for hop in topology.shortest_path(position[a], position[b])[1:-1]:
            # Swap logical a one step along the path.
            if hop in position:
                other = position.index(hop)
                position[other] = position[a]
            position[a] = hop
            swaps += 1
        if bound is not None and swaps > bound:
            return None
    return swaps


def _best_permutation(
    pairs: Sequence[Pair],
    topology: Topology,
    region: Sequence[int],
    bound: Optional[int],
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Exhaustive layout-permutation search within a region (width <= 5).

    Minimizes routed SWAP count — this is how toff_n3 lands on the
    paper's 9-CNOT, 2-link placement instead of a ping-ponging one.
    Deterministic tie-break on the permutation itself. Returns the
    winner and its cost, or ``None`` when every permutation needs more
    than *bound* SWAPs. Only permutations strictly above the best cost
    so far are abandoned, so ties are still scored and broken as in an
    unbounded search.
    """
    best: Optional[Tuple[int, ...]] = None
    best_cost = bound
    for perm in itertools.permutations(region):
        cost = _routing_cost(pairs, topology, perm, best_cost)
        if cost is None:
            continue
        if best is None or cost < best_cost or (
            cost == best_cost and perm < best
        ):
            best = perm
            best_cost = cost
    if best is None:
        return None
    return best, best_cost


#: Widths up to this use exhaustive permutation search; larger programs
#: fall back to the degree/busyness heuristic (search is factorial).
_PERMUTATION_SEARCH_MAX_WIDTH = 5


def noise_adaptive_layout(
    circuit: QuantumCircuit,
    device: RigettiAspenDevice,
    calibration: CalibrationData,
) -> Layout:
    """Pick the best-calibrated connected region, then minimize SWAPs.

    Every active qubit seeds a BFS region of the program's width; the
    region with the highest calibrated score wins. Within the region, an
    exhaustive permutation search (width <= 5) finds the assignment with
    the fewest routed SWAPs; wider programs fall back to placing the
    most-interacting logical qubits on the highest-degree physical
    qubits.
    """
    topology = device.topology
    width = circuit.num_qubits
    if width > topology.num_qubits:
        raise CompilationError(
            f"program needs {width} qubits, device has {topology.num_qubits}"
        )
    pairs: List[Pair] = [
        (gate.qubits[0], gate.qubits[1])
        for gate in circuit.gates()
        if gate.is_two_qubit
    ]
    use_permutations = width <= _PERMUTATION_SEARCH_MAX_WIDTH
    best_region: Optional[List[int]] = None
    best_key: Optional[Tuple[int, float]] = None
    best_perm: Optional[Tuple[int, ...]] = None
    for seed in topology.qubits:
        try:
            region = topology.connected_subgraph_qubits(seed, width)
        except DeviceError:
            continue  # the seed's component is smaller than the program
        if use_permutations:
            found = _best_permutation(
                pairs,
                topology,
                region,
                bound=None if best_key is None else best_key[0],
            )
            if found is None:
                # Needs more SWAPs than the best region: loses on any score.
                continue
            perm, cost = found
        else:
            perm = None
            cost = 0
        score = _region_score(region, device, calibration)
        # Fewer SWAPs beats a marginally better-calibrated region: every
        # routed SWAP costs three extra CNOTs.
        key = (cost, -score)
        if best_key is None or key < best_key:
            best_key = key
            best_region = region
            best_perm = perm
    if best_region is None:
        raise CompilationError("no connected region fits the program")

    if use_permutations and best_perm is not None:
        return Layout(best_perm)

    # Busy logical qubits -> well-connected physical qubits (within region).
    region_set = set(best_region)
    degree_in_region = {
        q: sum(1 for nb in topology.neighbors(q) if nb in region_set)
        for q in best_region
    }
    phys_by_degree = sorted(
        best_region, key=lambda q: (-degree_in_region[q], q)
    )
    interactions = _interaction_counts(pairs, width)
    logical_by_busyness = sorted(
        range(width), key=lambda q: (-interactions[q], q)
    )
    physical = [0] * width
    for logical, phys in zip(logical_by_busyness, phys_by_degree):
        physical[logical] = phys
    return Layout(tuple(physical))
