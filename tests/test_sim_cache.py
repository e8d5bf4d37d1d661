"""Simulation cache hierarchy: A/B equivalence, drift, eviction pressure."""

import numpy as np
import pytest

from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.programs.ghz import ghz
from repro.programs.qaoa import qaoa_n5
from repro.sim import CircuitCompiler, PrefixStateCache, SimulationCache
from repro.sim.circuit_compiler import circuit_fingerprint


def _native(device, program, gate="cz"):
    compiled = transpile(program, device)
    sequence = NativeGateSequence.uniform(compiled.sites, gate)
    return nativize(
        compiled.scheduled, sequence.as_site_map(), device.native_gates
    )


def _pair(program, seed=9, **kwargs):
    """Identically-seeded devices with the hierarchy on and off."""
    dev_on = small_test_device(5, seed=seed, sim_cache=True, **kwargs)
    dev_off = small_test_device(5, seed=seed, sim_cache=False, **kwargs)
    return dev_on, dev_off, _native(dev_on, program)


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

    def test_unfused_stream_matches_op_count(self):
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        used = device._used_qubits(circuit)
        compact, _ = device._compact_circuit(circuit, used)
        compiler = CircuitCompiler(
            device._operation_compiler_factory(used), fuse=False
        )
        lowered = compiler.lower(compact)
        assert len(lowered.operations) == lowered.raw_op_count

    def test_prefix_hashes_diverge_with_content(self):
        device = small_test_device(5, seed=9)
        circ_cz = _native(device, ghz(5), gate="cz")
        circ_xy = _native(device, ghz(5), gate="xy")
        used = device._used_qubits(circ_cz)
        compact_cz, _ = device._compact_circuit(circ_cz, used)
        compact_xy, _ = device._compact_circuit(circ_xy, used)
        compiler = CircuitCompiler(
            device._operation_compiler_factory(used)
        )
        hashes_cz = compiler.lower(compact_cz).prefix_hashes
        hashes_xy = compiler.lower(compact_xy).prefix_hashes
        assert hashes_cz != hashes_xy
        # Same circuit twice: identical chain (stable, content-based).
        assert hashes_cz == compiler.lower(compact_cz).prefix_hashes

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

    def test_counts_identical_under_eviction_pressure(self):
        """A starving byte budget degrades speed, never correctness."""
        dev_on, dev_off, _ = _pair(ghz(5))
        # 40 KB: roughly two 5-qubit snapshots (16 KB each).
        dev_on.sim_cache = SimulationCache(prefix_bytes=40 * 1024)
        for gate in ("cz", "xy", "cphase"):
            circuit_on = _native(dev_on, ghz(5), gate=gate)
            circuit_off = _native(dev_off, ghz(5), gate=gate)
            assert dev_on.run(circuit_on, 800, seed=5) == dev_off.run(
                circuit_off, 800, seed=5
            )
        assert dev_on.sim_cache.prefix.bytes <= 40 * 1024


class TestDriftInvalidation:
    def test_every_level_flushes_on_epoch_bump(self):
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        device.noisy_distribution(circuit)
        stats = device.sim_cache.stats()
        assert stats["dist_entries"] == 1
        assert stats["prefix_entries"] > 0
        device.advance_time(3600e6)
        stats = device.sim_cache.stats()
        assert stats["dist_entries"] == 0
        assert stats["prefix_entries"] == 0
        assert stats["prefix_bytes"] == 0
        assert stats["sim_epoch"] == device.drift_epoch
        assert len(device.sim_cache._products) == 0

    def test_no_stale_distribution_after_mid_batch_drift(self):
        """Time advanced mid-batch: no cache level serves pre-drift data.

        The batch-snapshot path computes all distributions at one epoch;
        an advance_time between two batches must force the second batch
        to recompute against the new parameters, matching a fresh
        uncached device that drifted identically.
        """
        dev_on, dev_off, _ = _pair(ghz(5))
        backend_on = LocalBackend(dev_on)
        backend_off = LocalBackend(dev_off)
        jobs_on = [
            Job(_native(dev_on, ghz(5)), 500, seed=s, tag="probe")
            for s in (1, 2, 3)
        ]
        jobs_off = [
            Job(_native(dev_off, ghz(5)), 500, seed=s, tag="probe")
            for s in (1, 2, 3)
        ]
        first_on = backend_on.submit_batch(jobs_on, parallel=True)
        first_off = backend_off.submit_batch(jobs_off, parallel=True)
        assert [r.counts for r in first_on] == [r.counts for r in first_off]
        # Identical probes in one snapshot batch: the distribution memo
        # serves the repeats (simulated once).
        assert dev_on.sim_cache.stats()["dist_hits"] >= 2

        dev_on.advance_time(12 * 3600e6)
        dev_off.advance_time(12 * 3600e6)
        second_on = backend_on.submit_batch(jobs_on, parallel=True)
        second_off = backend_off.submit_batch(jobs_off, parallel=True)
        # Stale service would reproduce the uncached *pre-drift* counts;
        # instead both paths agree on the *post-drift* physics.
        assert [r.counts for r in second_on] == [
            r.counts for r in second_off
        ]
        assert [r.counts for r in second_on] != [
            r.counts for r in first_on
        ]

    def test_no_stale_prefix_snapshot_after_drift(self):
        """A prefix snapshot never survives into the next epoch."""
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        device.noisy_distribution(circuit)
        stores_before = device.sim_cache.prefix.stores
        assert stores_before > 0
        device.advance_time(3600e6)
        # Post-drift lookup cannot hit: the cache is empty, so the
        # distribution is recomputed from scratch (a prefix miss).
        misses_before = device.sim_cache.prefix.misses
        device.noisy_distribution(circuit)
        assert device.sim_cache.prefix.misses == misses_before + 1
        assert device.sim_cache.prefix.hits == 0


class TestPrefixStateCache:
    def test_longest_prefix_picks_deepest_key(self):
        cache = PrefixStateCache(max_bytes=1 << 20)
        tensors = [np.full((2, 2), i, dtype=complex) for i in range(3)]
        keys = [bytes([i]) * 4 for i in range(3)]
        for key, tensor in zip(keys[:2], tensors[:2]):
            cache.put(key, tensor)
        depth, tensor = cache.longest_prefix(keys)
        assert depth == 2
        assert np.array_equal(tensor, tensors[1])
        assert cache.hits == 1

    def test_byte_budget_evicts_lru(self):
        tensor = np.zeros((8, 8), dtype=complex)  # 1 KB each
        cache = PrefixStateCache(max_bytes=3 * tensor.nbytes)
        for name in (b"a", b"b", b"c"):
            cache.put(name, tensor)
        # Touch "a" so "b" becomes least recently used.
        assert cache.longest_prefix([b"a"])[0] == 1
        cache.put(b"d", tensor)
        assert b"b" not in cache
        assert b"a" in cache and b"c" in cache and b"d" in cache
        assert cache.evictions == 1
        assert cache.bytes == 3 * tensor.nbytes

    def test_oversized_snapshot_not_stored(self):
        cache = PrefixStateCache(max_bytes=64)
        cache.put(b"big", np.zeros((8, 8), dtype=complex))
        assert len(cache) == 0
        assert cache.bytes == 0

    def test_stored_tensor_is_isolated_copy(self):
        cache = PrefixStateCache(max_bytes=1 << 20)
        tensor = np.zeros((2, 2), dtype=complex)
        cache.put(b"k", tensor)
        tensor[0, 0] = 99.0
        _, cached = cache.longest_prefix([b"k"])
        assert cached[0, 0] == 0.0


class TestExecutorStatsPlumbing:
    def test_sim_counters_flow_into_executor_stats(self):
        device = small_test_device(5, seed=9)
        executor = BatchExecutor(LocalBackend(device), mode="parallel")
        circuit = _native(device, ghz(5))
        jobs = [Job(circuit, 200, seed=s, tag="probe") for s in (1, 2, 3)]
        executor.submit_batch(jobs)
        stats = executor.stats
        assert stats.sim_dist_misses >= 1
        # Identical probes in one snapshot batch: the distribution memo
        # serves the repeats (simulated once).
        assert stats.sim_dist_hits >= 2
        assert stats.sim_prefix_misses >= 1
        # The gauge reads post-batch: the end-of-batch clock advance has
        # already invalidated the snapshots, so residency is back to 0.
        assert stats.sim_prefix_bytes == 0
        snapshot = stats.snapshot()
        assert snapshot["sim_dist_hits"] == stats.sim_dist_hits
        assert snapshot["sim_prefix_bytes"] == stats.sim_prefix_bytes
        assert "sim cache:" in stats.to_text()

    def test_no_sim_cache_backend_reports_zero(self):
        device = small_test_device(5, seed=9, sim_cache=False)
        backend = LocalBackend(device)
        stats = backend.cache_stats()
        assert "dist_hits" not in stats  # hierarchy absent, not zeroed
        executor = BatchExecutor(backend)
        circuit = _native(device, ghz(5))
        executor.submit(Job(circuit, 100, seed=1))
        assert executor.stats.sim_dist_hits == 0
        assert executor.stats.sim_dist_misses == 0
        assert "sim cache:" not in executor.stats.to_text()


class TestDistributionCacheSkipsSimulation:
    def test_identical_probes_skip_recompute(self):
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        device.noisy_distribution(circuit)
        replayed_after_first = device.sim_cache.ops_replayed
        device.noisy_distribution(circuit)
        # Second call: distribution memo hit, zero operator replays.
        assert device.sim_cache.ops_replayed == replayed_after_first
        assert device.sim_cache.dist_hits == 1

    def test_shared_prefix_replayed_once(self):
        """Probe variants replay only their divergent suffix.

        The localized-search shape: a candidate differs from the
        baseline only at one (late) link's sites, so its lowered stream
        shares the leading fused operators with the baseline's.
        """
        device = small_test_device(5, seed=9)
        compiled = transpile(ghz(5), device)
        baseline_seq = NativeGateSequence.uniform(compiled.sites, "cz")
        gates = list(baseline_seq.gates)
        gates[-1] = "xy"  # diverge at the last site only
        variant_seq = NativeGateSequence(compiled.sites, tuple(gates))
        baseline = nativize(
            compiled.scheduled,
            baseline_seq.as_site_map(),
            device.native_gates,
        )
        variant = nativize(
            compiled.scheduled,
            variant_seq.as_site_map(),
            device.native_gates,
        )
        device.noisy_distribution(baseline)
        replayed_baseline = device.sim_cache.ops_replayed
        device.noisy_distribution(variant)
        replayed_variant = (
            device.sim_cache.ops_replayed - replayed_baseline
        )
        assert device.sim_cache.ops_skipped > 0
        assert replayed_variant < replayed_baseline

    def test_placement_is_part_of_the_key(self):
        """Equal compact circuits on different physical qubits must not
        share cache entries (their noise differs)."""
        device = small_test_device(5, seed=9)

        def two_qubit_bell(a, b):
            from repro.circuit.circuit import QuantumCircuit

            circuit = QuantumCircuit(5, name=f"bell_{a}{b}")
            circuit.rz(np.pi / 2, a)
            circuit.rx(np.pi / 2, a)
            circuit.cz(a, b)
            circuit.measure(a)
            circuit.measure(b)
            return circuit

        dist_01 = device.noisy_distribution(two_qubit_bell(0, 1))
        dist_34 = device.noisy_distribution(two_qubit_bell(3, 4))
        assert device.sim_cache.dist_hits == 0  # distinct placements
        plain = small_test_device(5, seed=9, sim_cache=False)
        ref_34 = plain.noisy_distribution(two_qubit_bell(3, 4))
        for key in ref_34:
            assert dist_34[key] == pytest.approx(ref_34[key], abs=1e-12)
        assert dist_01 != dist_34
