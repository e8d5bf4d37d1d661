"""Distribution pipeline: fused against the per-gate reference, and
the shared dedup store (the only distribution memo) under drift."""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.programs.ghz import ghz
from repro.programs.qaoa import qaoa_n5
from repro.service import ProbeDistributionStore
from repro.sim import CircuitCompiler
from repro.sim.circuit_compiler import circuit_fingerprint


def _native(device, program, gate="cz"):
    compiled = transpile(program, device)
    sequence = NativeGateSequence.uniform(compiled.sites, gate)
    return nativize(
        compiled.scheduled, sequence.as_site_map(), device.native_gates
    )


def _pair(program, seed=9):
    """Identically-seeded devices with the fused pipeline on and off
    (off runs the per-gate reference path)."""
    dev_on = small_test_device(5, seed=seed)
    dev_off = small_test_device(5, seed=seed)
    dev_off.sim_cache = None
    return dev_on, dev_off, _native(dev_on, program)


def _sharing_store(count):
    """``count`` identically built devices attached to one store."""
    store = ProbeDistributionStore()
    devices = [small_test_device(5, seed=9) for _ in range(count)]
    for device in devices:
        assert store.attach(device)
    return devices


def _bell(a, b):
    circuit = QuantumCircuit(5, name=f"bell_{a}{b}")
    circuit.rz(np.pi / 2, a)
    circuit.rx(np.pi / 2, a)
    circuit.cz(a, b)
    circuit.measure(a)
    circuit.measure(b)
    return circuit


class TestLayerFusion:
    def test_fusion_reduces_contraction_count(self):
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        used = device._used_qubits(circuit)
        compact, _ = device._compact_circuit(circuit, used)
        compiler = CircuitCompiler(
            device._operation_compiler_factory(used),
            device._noise_callback_factory(used),
        )
        lowered = compiler.lower(compact)
        assert lowered.raw_op_count > len(lowered.operations)
        # Every fused op still acts on at most two qubits.
        assert all(len(op.qubits) <= 2 for op in lowered.operations)

    def test_fingerprint_ignores_name_keeps_content(self):
        device = small_test_device(5, seed=9)
        a = _native(device, ghz(5))
        b = _native(device, ghz(5))
        b.name = "renamed_probe_copy"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        c = _native(device, ghz(5), gate="xy")
        assert circuit_fingerprint(a) != circuit_fingerprint(c)


class TestBitIdenticalOnVsOff:
    @pytest.mark.parametrize(
        "program", [ghz(5), qaoa_n5()], ids=["ghz5", "qaoa5"]
    )
    def test_counts_identical_hierarchy_on_vs_off(self, program):
        dev_on, dev_off, _ = _pair(program)
        circuit_on = _native(dev_on, program)
        circuit_off = _native(dev_off, program)
        for seed in (7, 8, 9):
            counts_on = dev_on.run(circuit_on, 1500, seed=seed)
            counts_off = dev_off.run(circuit_off, 1500, seed=seed)
            assert counts_on == counts_off
        assert dev_on.clock_us == dev_off.clock_us

    @pytest.mark.parametrize(
        "program", [ghz(5), qaoa_n5()], ids=["ghz5", "qaoa5"]
    )
    def test_distributions_match_hierarchy_on_vs_off(self, program):
        dev_on, dev_off, circuit = _pair(program)
        dist_on = dev_on.noisy_distribution(circuit)
        dist_off = dev_off.noisy_distribution(circuit)
        assert set(dist_on) == set(dist_off)
        for key in dist_off:
            assert dist_on[key] == pytest.approx(dist_off[key], abs=1e-12)

    def test_counts_identical_across_drift_boundary(self):
        """advance_time mid-sequence: both paths see the same new physics."""
        dev_on, dev_off, _ = _pair(ghz(5))
        circuit_on = _native(dev_on, ghz(5))
        circuit_off = _native(dev_off, ghz(5))
        assert dev_on.run(circuit_on, 1000, seed=3) == dev_off.run(
            circuit_off, 1000, seed=3
        )
        dev_on.advance_time(6 * 3600e6)
        dev_off.advance_time(6 * 3600e6)
        assert dev_on.run(circuit_on, 1000, seed=3) == dev_off.run(
            circuit_off, 1000, seed=3
        )


class TestDriftInvalidation:
    def test_no_stale_distribution_after_mid_batch_drift(self):
        """Time advanced between batches: the shared store never serves
        pre-drift data.

        A publisher fills the store along its trajectory; a twin that
        drifted 12 h further must miss every lookup and match the
        per-gate reference device that drifted identically.
        """
        dev_on, dev_off, circuit = _pair(ghz(5))
        publisher = small_test_device(5, seed=9)
        store = ProbeDistributionStore()
        for device in (publisher, dev_on):
            assert store.attach(device)
        jobs = [Job(circuit, 500, seed=s, tag="probe") for s in (1, 2, 3)]
        first = LocalBackend(publisher).submit_batch(jobs)
        assert publisher.sim_cache.dist_misses == 3

        dev_on.advance_time(12 * 3600e6)
        dev_off.advance_time(12 * 3600e6)
        second_on = LocalBackend(dev_on).submit_batch(jobs)
        second_off = LocalBackend(dev_off).submit_batch(jobs)
        assert dev_on.sim_cache.dist_hits == 0
        assert dev_on.sim_cache.dist_misses == 3
        # Stale service would reproduce the *pre-drift* counts; instead
        # both paths agree on the *post-drift* physics.
        assert [r.counts for r in second_on] == [
            r.counts for r in second_off
        ]
        assert [r.counts for r in second_on] != [r.counts for r in first]


class TestExecutorStatsPlumbing:
    def test_sim_counters_flow_into_executor_stats(self):
        """Store hits and simulated distributions reach the executor
        ledger: a twin replaying the publisher's batch on the same
        trajectory is served every distribution from the store."""
        publisher, twin = _sharing_store(2)
        circuit = _native(publisher, ghz(5))
        jobs = [Job(circuit, 200, seed=s, tag="probe") for s in (1, 2, 3)]
        published = BatchExecutor(LocalBackend(publisher))
        replayed = BatchExecutor(LocalBackend(twin))
        first = published.submit_batch(jobs)
        second = replayed.submit_batch(jobs)
        assert [r.counts for r in second] == [r.counts for r in first]
        stats = published.stats
        assert (stats.sim_dist_hits, stats.sim_dist_misses) == (0, 3)
        assert stats.sim_shared_publishes == 3
        assert "sim cache: 3 distributions simulated" in stats.to_text()
        stats = replayed.stats
        assert (stats.sim_dist_hits, stats.sim_dist_misses) == (3, 0)
        assert stats.sim_shared_publishes == 0
        snapshot = stats.snapshot()
        assert snapshot["sim_dist_hits"] == stats.sim_dist_hits
        assert snapshot["sim_dist_misses"] == stats.sim_dist_misses
        assert "probe dedup: 3 cross-request hits" in stats.to_text()

    def test_no_sim_cache_backend_reports_zero(self):
        device = small_test_device(5, seed=9)
        device.sim_cache = None
        backend = LocalBackend(device)
        stats = backend.cache_stats()
        assert "dist_hits" not in stats  # pipeline absent, not zeroed
        executor = BatchExecutor(backend)
        circuit = _native(device, ghz(5))
        executor.submit(Job(circuit, 100, seed=1))
        assert executor.stats.sim_dist_hits == 0
        assert executor.stats.sim_dist_misses == 0
        assert "sim cache:" not in executor.stats.to_text()


class TestDistributionCacheSkipsSimulation:
    def test_identical_probes_skip_recompute(self):
        """A probe another device already simulated at the identical
        physics state is served from the shared store: one hit, no
        simulation, the same distribution."""
        first, second = _sharing_store(2)
        circuit = _native(first, ghz(5))
        dist_first = first.noisy_distribution(circuit)
        dist_second = second.noisy_distribution(circuit)
        assert (first.sim_cache.dist_hits, first.sim_cache.dist_misses) == (
            0,
            1,
        )
        assert second.sim_cache.dist_hits == 1
        assert second.sim_cache.dist_misses == 0
        assert dist_second == dist_first

    def test_placement_is_part_of_the_key(self):
        """Equal compact circuits on different physical qubits must not
        share store entries (their noise differs)."""
        first, second = _sharing_store(2)
        assert first.parameter_fingerprint() == second.parameter_fingerprint()
        dist_01 = first.noisy_distribution(_bell(0, 1))
        dist_34 = second.noisy_distribution(_bell(3, 4))
        assert second.sim_cache.dist_hits == 0  # distinct placements
        plain = small_test_device(5, seed=9)
        plain.sim_cache = None
        ref_34 = plain.noisy_distribution(_bell(3, 4))
        for key in ref_34:
            assert dist_34[key] == pytest.approx(ref_34[key], abs=1e-12)
        assert dist_01 != dist_34
        # The same placement asked again on the other device hits.
        assert second.noisy_distribution(_bell(0, 1)) == dist_01
        assert second.sim_cache.dist_hits == 1
