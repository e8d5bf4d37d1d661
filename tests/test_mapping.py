"""Tests for qubit mapping strategies."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_circuit
from repro.compiler.mapping import (
    Layout,
    _region_score,
    noise_adaptive_layout,
    trivial_layout,
)
from repro.device import CalibrationService, small_test_device
from repro.device.presets import build_device
from repro.device.topology import aspen_topology, linear_topology
from repro.exceptions import CompilationError
from repro.experiments.context import ExperimentContext
from repro.programs import benchmark_suite, ghz_n4
from tests.oracle import differential_seeds


class TestLayout:
    def test_injective(self):
        with pytest.raises(CompilationError):
            Layout((0, 0, 1))

    def test_phys_lookup(self):
        layout = Layout((3, 1, 4))
        assert layout.phys(0) == 3
        assert layout.logical_of() == {3: 0, 1: 1, 4: 2}

    def test_as_mapping(self):
        assert Layout((2, 0)).as_mapping() == [2, 0]


class TestTrivialLayout:
    def test_connected_region(self):
        topo = linear_topology(6)
        layout = trivial_layout(QuantumCircuit(3), topo)
        assert len(layout) == 3
        assert layout.phys(0) == 0

    def test_seeded(self):
        topo = linear_topology(6)
        layout = trivial_layout(QuantumCircuit(3), topo, seed_qubit=2)
        assert layout.phys(0) == 2


class TestNoiseAdaptiveLayout:
    @pytest.fixture()
    def setup(self):
        device = small_test_device(6, seed=5)
        service = CalibrationService(device, seed=0)
        service.full_calibration()
        return device, service.data

    def test_produces_valid_layout(self, setup):
        device, calibration = setup
        layout = noise_adaptive_layout(ghz_n4(), device, calibration)
        assert len(layout) == 4
        assert len(set(layout.physical)) == 4
        for phys in layout.physical:
            assert phys in device.topology.qubits

    def test_rejects_oversized_program(self, setup):
        device, calibration = setup
        with pytest.raises(CompilationError):
            noise_adaptive_layout(QuantumCircuit(10), device, calibration)

    def test_prefers_better_region(self, setup):
        device, calibration = setup
        # Degrade calibration records touching qubit 0 so the chosen
        # region avoids it.
        from repro.device.calibration import CalibrationRecord

        for (link, gate), rec in list(calibration.two_qubit.items()):
            if 0 in link:
                calibration.two_qubit[(link, gate)] = CalibrationRecord(
                    0.3, rec.timestamp_us
                )
        layout = noise_adaptive_layout(ghz_n4(), device, calibration)
        assert 0 not in layout.physical

    def test_deterministic(self, setup):
        device, calibration = setup
        a = noise_adaptive_layout(ghz_n4(), device, calibration)
        b = noise_adaptive_layout(ghz_n4(), device, calibration)
        assert a.physical == b.physical

    def test_preset_devices_share_one_topology(self):
        """Every ``aspen11()`` shares one topology (its BFS and path
        memos fill once per process), and layouts on it match layouts
        on devices built over a fresh, never-queried topology."""
        from repro.device import aspen11

        programs = [spec.build() for spec in benchmark_suite()]
        shared = [aspen11(seed=seed) for seed in (4, 9)]
        assert shared[0].topology is shared[1].topology
        for seed, device in zip((4, 9), shared):
            fresh_topology = aspen_topology(
                rows=1, cols=5, name="aspen-11", dead_qubits=(14, 33)
            )
            assert fresh_topology == device.topology
            assert fresh_topology is not device.topology
            layouts = []
            for candidate in (device, build_device(fresh_topology, seed=seed)):
                service = CalibrationService(candidate, seed=1)
                service.full_calibration()
                layouts.append(
                    [
                        noise_adaptive_layout(
                            program, candidate, service.data
                        ).physical
                        for program in programs
                    ]
                )
            assert layouts[0] == layouts[1]

    def test_readout_bug_propagates(self, setup, monkeypatch):
        device, calibration = setup

        def broken(qubit):
            raise RuntimeError("readout lookup bug")

        monkeypatch.setattr(calibration, "readout_fidelity", broken)
        with pytest.raises(RuntimeError, match="readout lookup bug"):
            noise_adaptive_layout(ghz_n4(), device, calibration)

    def test_missing_readout_record_scores_as_perfect(self, setup):
        from repro.device.calibration import CalibrationRecord

        device, calibration = setup
        region = noise_adaptive_layout(ghz_n4(), device, calibration).physical
        perfect = calibration.snapshot()
        perfect.readout[region[0]] = CalibrationRecord(1.0, 0.0)
        del calibration.readout[region[0]]
        assert _region_score(region, device, calibration) == _region_score(
            region, device, perfect
        )
        layout = noise_adaptive_layout(ghz_n4(), device, calibration)
        assert len(set(layout.physical)) == 4

    def test_skips_component_smaller_than_program(self):
        # Dead qubits 3 and 5 cut qubit 4 off the rest of the ring.
        device = build_device(aspen_topology(1, 1, dead_qubits=(3, 5)), seed=2)
        service = CalibrationService(device, seed=0)
        service.full_calibration()
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        layout = noise_adaptive_layout(circuit, device, service.data)
        assert 4 not in layout.physical
        assert device.topology.has_link(*layout.physical)


def _reference_layout(circuit, device, calibration):
    """Unbounded exhaustive search (width <= 5), kept as the reference.

    Every BFS region, every permutation, SWAP cost over ``nx.shortest_path``
    on a freshly built graph, region key ``(cost, -score)``, ties broken on
    the permutation.
    """
    topology = device.topology
    graph = nx.Graph()
    graph.add_nodes_from(topology.qubits)
    graph.add_edges_from(topology.links)
    width = circuit.num_qubits
    pairs = [g.qubits for g in circuit.gates() if g.is_two_qubit]

    def routing_cost(physical):
        position = list(physical)
        swaps = 0
        for a, b in pairs:
            if graph.has_edge(position[a], position[b]):
                continue
            path = nx.shortest_path(graph, position[a], position[b])
            for hop in path[1:-1]:
                if hop in position:
                    position[position.index(hop)] = position[a]
                position[a] = hop
                swaps += 1
        return swaps

    best = None
    for seed in topology.qubits:
        order = list(nx.bfs_tree(graph, seed))
        if len(order) < width:
            continue
        region = order[:width]
        costs = {p: routing_cost(p) for p in itertools.permutations(region)}
        perm = min(costs, key=lambda p: (costs[p], p))
        key = (costs[perm], -_region_score(region, device, calibration))
        if best is None or key < best[0]:
            best = (key, perm)
    return best[1]


def _random_program(seed):
    rng = np.random.default_rng(3000 + seed)
    width = int(rng.integers(2, 6))
    return random_circuit(width, int(rng.integers(5, 30)), rng)


@pytest.fixture(scope="module")
def aspen11_context():
    context = ExperimentContext.create(
        device_name="aspen-11", seed=11, calibration_seed=3, drift_hours=2.0
    )
    yield context
    context.close()


@pytest.fixture(scope="module")
def line6_calibrated():
    device = small_test_device(6)
    service = CalibrationService(device, seed=0)
    service.full_calibration()
    return device, service.data


class TestLayoutMatchesExhaustiveReference:
    """The bounded search picks exactly what the unbounded one picks."""

    TABLE_I_LAYOUTS = {
        "tele_n2": (10, 11),
        "lin_sol_n3": (21, 22, 23),
        "toff_n3": (21, 23, 22),
        "GHZ_n4": (21, 22, 23, 24),
        "VQE_n4": (21, 22, 23, 24),
        "BV_n4": (10, 12, 26, 11),
        "QEC_n4": (1, 16, 15, 2),
        "QAOA_n5": (10, 17, 11, 12, 26),
    }

    @pytest.mark.parametrize(
        "spec", benchmark_suite(), ids=lambda spec: spec.name
    )
    def test_table_i_on_aspen11(self, aspen11_context, spec):
        device = aspen11_context.device
        calibration = aspen11_context.calibration
        circuit = spec.build()
        layout = noise_adaptive_layout(circuit, device, calibration)
        assert layout.physical == _reference_layout(circuit, device, calibration)
        assert layout.physical == self.TABLE_I_LAYOUTS[spec.name]

    @pytest.mark.parametrize("seed", differential_seeds(range(12)))
    def test_random_on_aspen11(self, aspen11_context, seed):
        device = aspen11_context.device
        calibration = aspen11_context.calibration
        circuit = _random_program(seed)
        layout = noise_adaptive_layout(circuit, device, calibration)
        assert layout.physical == _reference_layout(circuit, device, calibration)

    @pytest.mark.parametrize("seed", differential_seeds(range(12)))
    def test_random_on_line(self, line6_calibrated, seed):
        device, calibration = line6_calibrated
        circuit = _random_program(seed)
        layout = noise_adaptive_layout(circuit, device, calibration)
        assert layout.physical == _reference_layout(circuit, device, calibration)
