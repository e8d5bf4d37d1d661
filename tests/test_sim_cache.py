"""Distribution pipeline: fused against the Kraus oracle, and the shared
dedup store (the only distribution memo) under drift."""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence, enumerate_sequences
from repro.device import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.experiments import ExperimentContext, ledgers_to_text
from repro.programs.ghz import ghz
from repro.programs.qaoa import qaoa_n5
from repro.service import ProbeDistributionStore
from repro.sim import circuit_digest
from tests.oracle import use_kraus_oracle


def _native(device, program, gate="cz"):
    compiled = transpile(program, device)
    sequence = NativeGateSequence.uniform(compiled.sites, gate)
    return nativize(
        compiled.scheduled, sequence.as_site_map(), device.native_gates
    )


def _pair(program, seed=9):
    """Identically-seeded devices, the second sampling the Kraus oracle
    in place of the fused pipeline."""
    dev_on = small_test_device(5, seed=seed)
    dev_off = use_kraus_oracle(small_test_device(5, seed=seed))
    return dev_on, dev_off, _native(dev_on, program)


def _sharing_store(count):
    """``count`` identically built devices attached to one store."""
    store = ProbeDistributionStore()
    devices = [small_test_device(5, seed=9) for _ in range(count)]
    for device in devices:
        store.attach(device)
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
        executable = device.prepare(_native(device, ghz(5)))
        raw_ops = sum(len(steps) // 3 for _, steps in executable.blocks)
        assert raw_ops > len(executable.blocks)
        # Every fused block still acts on at most two qubits.
        assert all(len(qubits) <= 2 for qubits, _ in executable.blocks)

    def test_fingerprint_ignores_name_keeps_content(self):
        device = small_test_device(5, seed=9)
        a = _native(device, ghz(5))
        b = _native(device, ghz(5))
        b.name = "renamed_probe_copy"
        assert circuit_digest(a) == circuit_digest(b)
        assert device.prepare(a).digest == device.prepare(b).digest
        c = _native(device, ghz(5), gate="xy")
        assert circuit_digest(a) != circuit_digest(c)
        assert device.prepare(a).digest != device.prepare(c).digest


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

    def test_probe_batch_counts_identical_on_the_kraus_oracle(self):
        """Eight seeded GHZ-5 probes, each under its own native-gate
        sequence, through the executor: the same counts and clock."""
        runs = []
        for device in (
            small_test_device(6, seed=23),
            use_kraus_oracle(small_test_device(6, seed=23)),
        ):
            compiled = transpile(ghz(5), device)
            sequences = list(
                enumerate_sequences(
                    compiled.sites, compiled.gate_options(), "link"
                )
            )
            rng = np.random.default_rng(5)
            jobs = [
                Job(
                    compiled.nativized(
                        sequences[number % len(sequences)],
                        name_suffix=f"_m{number}",
                    ),
                    256,
                    seed=int(rng.integers(2**31)),
                    tag="probe",
                )
                for number in range(8)
            ]
            results = BatchExecutor(LocalBackend(device)).submit_batch(jobs)
            runs.append(([r.counts for r in results], device.clock_us))
        assert runs[0] == runs[1]


class TestDriftInvalidation:
    def test_no_stale_distribution_after_mid_batch_drift(self):
        """Time advanced between batches: the shared store never serves
        pre-drift data.

        A publisher fills the store along its trajectory; a twin that
        drifted 12 h further must miss every lookup and match the
        Kraus-oracle device that drifted identically.
        """
        dev_on, dev_off, circuit = _pair(ghz(5))
        publisher = small_test_device(5, seed=9)
        store = ProbeDistributionStore()
        for device in (publisher, dev_on):
            store.attach(device)
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
        """Store hits and simulated distributions reach the
        execution-service stats (``--stats``), read from each device's
        simulation cache: a twin context replaying the publisher's batch
        on the same trajectory is served every distribution from the
        store."""
        publisher = ExperimentContext.create(drift_hours=0.0)
        twin = publisher.clone()
        store = ProbeDistributionStore()
        for context in (publisher, twin):
            store.attach(context.device)
        circuit = _native(publisher.device, ghz(5))
        jobs = [Job(circuit, 200, seed=s, tag="probe") for s in (1, 2, 3)]
        first = publisher.executor.submit_batch(jobs)
        second = twin.executor.submit_batch(jobs)
        assert [r.counts for r in second] == [r.counts for r in first]
        cache = publisher.ledgers()["cache"]
        assert (cache["dist_hits"], cache["dist_misses"]) == (0, 3)
        assert cache["dist_shared_publishes"] == 3
        text = ledgers_to_text(publisher.ledgers())
        assert "sim cache: 3 distributions simulated" in text
        cache = twin.ledgers()["cache"]
        assert (cache["dist_hits"], cache["dist_misses"]) == (3, 0)
        assert cache["dist_shared_publishes"] == 0
        assert cache["dist_hits"] == twin.device.sim_cache.dist_hits
        text = ledgers_to_text(twin.ledgers())
        assert "probe dedup: 3 cross-request hits" in text


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
        plain = use_kraus_oracle(small_test_device(5, seed=9))
        ref_34 = plain.noisy_distribution(_bell(3, 4))
        for key in ref_34:
            assert dist_34[key] == pytest.approx(ref_34[key], abs=1e-12)
        assert dist_01 != dist_34
        # The same placement asked again on the other device hits.
        assert second.noisy_distribution(_bell(0, 1)) == dist_01
        assert second.sim_cache.dist_hits == 1
