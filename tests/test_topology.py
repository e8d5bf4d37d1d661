"""Tests for device topologies."""

import sys
import threading

import networkx as nx
import pytest

from repro.device.presets import aspen11, aspen_m1
from repro.device.topology import (
    Topology,
    aspen_topology,
    linear_topology,
    make_link,
)
from repro.exceptions import DeviceError


class TestMakeLink:
    def test_canonical_ordering(self):
        assert make_link(5, 2) == (2, 5)
        assert make_link(2, 5) == (2, 5)

    def test_self_link_rejected(self):
        with pytest.raises(DeviceError):
            make_link(3, 3)


class TestLinearTopology:
    def test_structure(self):
        topo = linear_topology(4)
        assert topo.num_qubits == 4
        assert topo.links == ((0, 1), (1, 2), (2, 3))

    def test_minimum_size(self):
        with pytest.raises(DeviceError):
            linear_topology(1)

    def test_neighbors_and_degree(self):
        topo = linear_topology(4)
        assert topo.neighbors(1) == [0, 2]
        assert topo.degree(0) == 1

    def test_shortest_path(self):
        topo = linear_topology(5)
        assert topo.shortest_path(0, 3) == [0, 1, 2, 3]
        assert topo.distance(0, 4) == 4

    def test_connected(self):
        assert linear_topology(6).is_connected()


class TestAspenTopology:
    def test_single_octagon(self):
        topo = aspen_topology(1, 1)
        assert topo.num_qubits == 8
        assert topo.num_links == 8  # a pure ring

    def test_horizontal_coupling(self):
        topo = aspen_topology(1, 2)
        assert topo.num_qubits == 16
        # 2 rings (16) + 2 inter-octagon links.
        assert topo.num_links == 18
        assert topo.has_link(1, 16)
        assert topo.has_link(2, 15)

    def test_vertical_coupling(self):
        topo = aspen_topology(2, 1)
        assert topo.has_link(0, 13)
        assert topo.has_link(7, 14)

    def test_aspen_m1_scale(self):
        topo = aspen_topology(2, 5)
        assert topo.num_qubits == 80
        # 10 rings (80) + 8 horizontal pairs (16) + 5 vertical pairs (10).
        assert topo.num_links == 106

    def test_dead_qubits_removed(self):
        topo = aspen_topology(1, 1, dead_qubits=(3,))
        assert topo.num_qubits == 7
        assert not any(3 in link for link in topo.links)

    def test_disabled_links_removed(self):
        topo = aspen_topology(1, 1, disabled_links=((0, 1),))
        assert not topo.has_link(0, 1)
        assert topo.num_links == 7

    def test_rigetti_id_convention(self):
        topo = aspen_topology(1, 3)
        assert 20 in topo.qubits  # third octagon starts at 20
        assert max(topo.qubits) == 27

    def test_invalid_grid(self):
        with pytest.raises(DeviceError):
            aspen_topology(0, 1)


class TestTopologyValidation:
    def test_non_canonical_link_rejected(self):
        with pytest.raises(DeviceError):
            Topology("bad", (0, 1), ((1, 0),))

    def test_unknown_qubit_in_link_rejected(self):
        with pytest.raises(DeviceError):
            Topology("bad", (0, 1), ((0, 2),))

    def test_no_path_raises(self):
        topo = Topology("split", (0, 1, 2, 3), ((0, 1), (2, 3)))
        with pytest.raises(DeviceError):
            topo.shortest_path(0, 3)

    def test_bfs_region(self):
        topo = linear_topology(6)
        region = topo.connected_subgraph_qubits(2, 4)
        assert len(region) == 4
        assert region[0] == 2
        graph = topo.graph().subgraph(region)
        assert nx.is_connected(graph)

    def test_bfs_region_too_large(self):
        topo = Topology("split", (0, 1, 2), ((0, 1),))
        with pytest.raises(DeviceError):
            topo.connected_subgraph_qubits(0, 3)


class TestDerivedStructures:
    """Lookup structures are built once per instance and never leak."""

    def test_mutating_returned_values_leaves_answers_unchanged(self):
        topo = aspen_topology(1, 2)
        topo.neighbors(1).append(99)
        topo.shortest_path(0, 16).clear()
        topo.connected_subgraph_qubits(0, 5).reverse()
        graph = topo.graph()
        graph.remove_node(1)
        graph.add_edge(0, 4)
        assert topo.neighbors(1) == [0, 2, 16]
        assert topo.shortest_path(0, 16) == [0, 1, 16]
        assert topo.connected_subgraph_qubits(0, 5) == list(
            nx.bfs_tree(aspen_topology(1, 2).graph(), 0)
        )[:5]
        assert not topo.has_link(0, 4)
        assert topo.has_link(0, 1)
        assert topo.is_connected()
        assert set(topo.graph().edges()) == set(aspen_topology(1, 2).links)

    @pytest.mark.parametrize("build", [aspen11, aspen_m1])
    def test_all_pairs_agree_with_fresh_graph(self, build):
        topo = build().topology
        graph = topo.graph()
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        for a in topo.qubits:
            assert topo.neighbors(a) == sorted(graph.neighbors(a))
            assert topo.degree(a) == graph.degree(a)
            for b in topo.qubits:
                if a == b:
                    continue
                assert topo.has_link(a, b) == graph.has_edge(a, b)
                assert topo.distance(a, b) == lengths[a][b]
                assert topo.shortest_path(a, b) == nx.shortest_path(graph, a, b)

    def test_without_copy_does_not_inherit_memos(self):
        ring = aspen_topology(1, 1)
        assert ring.shortest_path(0, 2) == [0, 1, 2]
        assert ring.neighbors(0) == [1, 7]
        assert ring.connected_subgraph_qubits(0, 3) == [0, 1, 7]
        cut = ring.without(dead_qubits=(1,))
        assert cut.shortest_path(0, 2) == [0, 7, 6, 5, 4, 3, 2]
        assert cut.neighbors(0) == [7]
        assert not cut.has_link(0, 1)
        assert cut.connected_subgraph_qubits(0, 3) == [0, 7, 6]
        assert ring.shortest_path(0, 2) == [0, 1, 2]

    def test_equality_and_hash_ignore_memos(self):
        warm = linear_topology(5)
        cold = linear_topology(5)
        warm.shortest_path(0, 4)
        warm.connected_subgraph_qubits(2, 3)
        assert warm.has_link(0, 1) and warm.is_connected()
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert {warm: "value"}[cold] == "value"
        assert warm != linear_topology(6)

    def test_concurrent_memo_fills_agree_with_fresh_graph(self):
        shared = aspen11().topology
        graph = shared.graph()
        pairs = [(a, b) for a in shared.qubits for b in shared.qubits]
        paths = {(a, b): nx.shortest_path(graph, a, b) for a, b in pairs}
        regions = {q: list(nx.bfs_tree(graph, q))[:4] for q in shared.qubits}
        mismatches = []

        def worker(offset):
            for a, b in pairs[offset:] + pairs[:offset]:
                if shared.shortest_path(a, b) != paths[(a, b)]:
                    mismatches.append(("path", a, b))
                if shared.connected_subgraph_qubits(a, 4) != regions[a]:
                    mismatches.append(("region", a))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(97 * k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
