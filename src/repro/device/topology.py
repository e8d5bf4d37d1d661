"""Device topologies: the Rigetti Aspen octagon lattice.

Aspen-family chips tile octagonal 8-qubit rings in a grid; adjacent
octagons share two links. Qubit ids follow Rigetti's convention of
``octagon_index * 10 + ring_position`` (ring positions 0-7), which is why
Aspen ids jump by tens (0-7, 10-17, ..., 100-107 on larger chips).

The generator supports dead qubits and disabled links so presets can
match the published device sizes (38 usable qubits on Aspen-11, 103
active links on Aspen-M-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import networkx as nx

from ..exceptions import DeviceError

__all__ = ["Link", "Topology", "aspen_topology", "linear_topology"]

#: A device link is an unordered pair of physical qubit ids, stored sorted.
Link = Tuple[int, int]


def make_link(qubit_a: int, qubit_b: int) -> Link:
    """Normalize an unordered qubit pair into a canonical link key."""
    if qubit_a == qubit_b:
        raise DeviceError(f"link endpoints must differ, got {qubit_a}")
    return (qubit_a, qubit_b) if qubit_a < qubit_b else (qubit_b, qubit_a)


@dataclass(frozen=True)
class Topology:
    """An undirected device connectivity graph.

    Lookup structures (link set, adjacency, a networkx graph, and memos
    of shortest paths and BFS orders) are derived lazily, once per
    instance, and are not part of equality or hashing. Memo fills store
    deterministic values, so concurrent callers at worst compute one
    twice; public methods return fresh lists so no caller can corrupt a
    memo.

    Attributes:
        name: Device name for reports (e.g. ``"aspen-11"``).
        qubits: Active physical qubit ids, sorted.
        links: Active links as canonical (sorted) pairs, sorted.
    """

    name: str
    qubits: Tuple[int, ...]
    links: Tuple[Link, ...]

    def __post_init__(self) -> None:
        qubit_set = set(self.qubits)
        for link in self.links:
            if link != make_link(*link):
                raise DeviceError(f"link {link} is not canonical")
            if link[0] not in qubit_set or link[1] not in qubit_set:
                raise DeviceError(f"link {link} references unknown qubit")

    @cached_property
    def _link_set(self) -> FrozenSet[Link]:
        return frozenset(self.links)

    @cached_property
    def _adjacency(self) -> Dict[int, Tuple[int, ...]]:
        found: Dict[int, List[int]] = {q: [] for q in self.qubits}
        for a, b in self.links:
            found[a].append(b)
            found[b].append(a)
        return {q: tuple(sorted(nbs)) for q, nbs in found.items()}

    @cached_property
    def _graph(self) -> nx.Graph:
        return self.graph()

    @cached_property
    def _paths(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        return {}

    @cached_property
    def _bfs_orders(self) -> Dict[int, Tuple[int, ...]]:
        return {}

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def has_link(self, qubit_a: int, qubit_b: int) -> bool:
        return make_link(qubit_a, qubit_b) in self._link_set

    def neighbors(self, qubit: int) -> List[int]:
        return list(self._adjacency.get(qubit, ()))

    def degree(self, qubit: int) -> int:
        return len(self._adjacency.get(qubit, ()))

    def graph(self) -> nx.Graph:
        """The topology as a networkx graph (nodes=qubits, edges=links)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.qubits)
        graph.add_edges_from(self.links)
        return graph

    def _path(self, source: int, target: int) -> Tuple[int, ...]:
        path = self._paths.get((source, target))
        if path is None:
            try:
                path = tuple(nx.shortest_path(self._graph, source, target))
            except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
                raise DeviceError(
                    f"no path between qubits {source} and {target}"
                ) from exc
            self._paths[(source, target)] = path
        return path

    def shortest_path(self, source: int, target: int) -> List[int]:
        """Qubit path between two physical qubits (inclusive)."""
        return list(self._path(source, target))

    def distance(self, source: int, target: int) -> int:
        return len(self._path(source, target)) - 1

    def is_connected(self) -> bool:
        return nx.is_connected(self._graph)

    def connected_subgraph_qubits(self, seed_qubit: int, size: int) -> List[int]:
        """A BFS-grown connected region of *size* qubits around a seed."""
        order = self._bfs_orders.get(seed_qubit)
        if order is None:
            if seed_qubit not in self._graph:
                raise DeviceError(f"unknown qubit {seed_qubit}")
            order = tuple(nx.bfs_tree(self._graph, seed_qubit))
            self._bfs_orders[seed_qubit] = order
        if len(order) < size:
            raise DeviceError(
                f"component around {seed_qubit} has only {len(order)} qubits"
            )
        return list(order[:size])

    def without(
        self,
        dead_qubits: Iterable[int] = (),
        disabled_links: Iterable[Link] = (),
    ) -> "Topology":
        """A copy with the given qubits/links removed."""
        dead = set(dead_qubits)
        disabled = {make_link(*link) for link in disabled_links}
        qubits = tuple(q for q in self.qubits if q not in dead)
        links = tuple(
            link
            for link in self.links
            if link not in disabled and link[0] not in dead and link[1] not in dead
        )
        return Topology(self.name, qubits, links)


def aspen_topology(
    rows: int,
    cols: int,
    name: str = "aspen",
    dead_qubits: Iterable[int] = (),
    disabled_links: Iterable[Link] = (),
) -> Topology:
    """Generate an Aspen-style octagon lattice of *rows* x *cols* octagons.

    Ring positions within octagon ``o`` are ids ``o*10 + p`` for
    ``p in 0..7``, connected in a ring. Between horizontally adjacent
    octagons, positions (1, 2) of the left octagon connect to positions
    (6, 5) of the right one; vertically, positions (0, 7) connect to
    positions (3, 4) of the octagon below — two shared links per adjacent
    pair, as on real Aspen chips.
    """
    if rows < 1 or cols < 1:
        raise DeviceError("need at least one octagon")
    links: Set[Link] = set()
    qubits: List[int] = []

    def octagon_index(row: int, col: int) -> int:
        return row * cols + col

    for row in range(rows):
        for col in range(cols):
            base = octagon_index(row, col) * 10
            ring = [base + p for p in range(8)]
            qubits.extend(ring)
            for p in range(8):
                links.add(make_link(ring[p], ring[(p + 1) % 8]))
            if col + 1 < cols:
                right = octagon_index(row, col + 1) * 10
                links.add(make_link(base + 1, right + 6))
                links.add(make_link(base + 2, right + 5))
            if row + 1 < rows:
                below = octagon_index(row + 1, col) * 10
                links.add(make_link(base + 0, below + 3))
                links.add(make_link(base + 7, below + 4))

    topology = Topology(name, tuple(sorted(qubits)), tuple(sorted(links)))
    if dead_qubits or disabled_links:
        topology = Topology(
            name,
            topology.qubits,
            topology.links,
        ).without(dead_qubits, disabled_links)
    return topology


def linear_topology(num_qubits: int, name: str = "line") -> Topology:
    """A 1-D chain — the minimal topology used throughout the tests."""
    if num_qubits < 2:
        raise DeviceError("linear topology needs at least two qubits")
    qubits = tuple(range(num_qubits))
    links = tuple((i, i + 1) for i in range(num_qubits - 1))
    return Topology(name, qubits, links)
