"""Worker-pool tests: lifecycle, epoch-delta sync, bit-equivalence.

The contract under test is the one the backend's parallel discipline is
built on: a persistent :class:`~repro.exec.pool.WorkerPool` produces
distributions **bit-identical** to computing the same parameter snapshot
in-process (``max_workers=1``), across any number of workers, with
affinity scheduling on or off, and across drift-epoch boundaries the
parent crosses between batches.
"""

import multiprocessing

import pytest

from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend, WorkerPool
from repro.programs.ghz import ghz
from repro.programs.qaoa import qaoa_n5

_HOUR_US = 3_600e6


def _noop():  # pragma: no cover - runs in the probe child process
    pass


def _pools_available() -> bool:
    """Whether this environment can spawn worker processes at all."""
    try:
        process = multiprocessing.get_context().Process(target=_noop)
        process.start()
        process.join(5.0)
        return process.exitcode == 0
    except (OSError, ValueError):
        return False


pytestmark = pytest.mark.skipif(
    not _pools_available(),
    reason="process pools unavailable in this environment",
)


def _native(device, program, gate="cz", suffix=""):
    compiled = transpile(program, device)
    sequence = NativeGateSequence.uniform(compiled.sites, gate)
    return nativize(
        compiled.scheduled,
        sequence.as_site_map(),
        device.native_gates,
        name_suffix=suffix,
    )


def _probe_circuits(device):
    """A localized-search-shaped probe set: per-gate GHZ-5 candidates
    (sharing long prefixes) plus a QAOA workload with a different shape."""
    circuits = [
        _native(device, ghz(5), gate, suffix=f"_{gate}")
        for gate in ("cz", "xy", "cphase")
    ]
    circuits.append(_native(device, qaoa_n5(), "cz", suffix="_qaoa"))
    return circuits


def _jobs(device, shots=200, base_seed=100):
    return [
        Job(circuit, shots, seed=base_seed + i, tag="probe")
        for i, circuit in enumerate(_probe_circuits(device))
    ]


class TestPoolLifecycle:
    def test_pool_persists_across_batches(self):
        """One spawn serves a whole sweep: the acceptance pin."""
        device = small_test_device(5, seed=31)
        backend = LocalBackend(device)
        executor = BatchExecutor(backend, mode="parallel", max_workers=2)
        first_pool = None
        for _ in range(3):
            executor.submit_batch(_jobs(device))
            assert backend.pool is not None
            if first_pool is None:
                first_pool = backend.pool
            assert backend.pool is first_pool
        assert backend.pool_spawns == 1
        assert backend.cache_stats()["pool_spawns"] == 1
        backend.close()

    def test_pool_rebuilt_after_close(self):
        device = small_test_device(5, seed=31)
        backend = LocalBackend(device)
        backend.submit_batch(_jobs(device), parallel=True, max_workers=2)
        assert backend.pool_spawns == 1
        backend.close()
        assert backend.pool is None
        backend.close()  # idempotent
        results = backend.submit_batch(
            _jobs(device), parallel=True, max_workers=2
        )
        assert backend.pool_spawns == 2
        assert all(sum(r.counts.values()) == 200 for r in results)
        backend.close()

    def test_resize_respawns_same_size_reuses(self):
        device = small_test_device(5, seed=31)
        with LocalBackend(device) as backend:
            backend.submit_batch(
                _jobs(device), parallel=True, max_workers=2
            )
            backend.submit_batch(
                _jobs(device), parallel=True, max_workers=2
            )
            assert backend.pool_spawns == 1
            backend.submit_batch(
                _jobs(device), parallel=True, max_workers=3
            )
            assert backend.pool_spawns == 2
            assert backend.pool.num_workers == 3
            # max_workers=None reuses whatever is live.
            backend.submit_batch(_jobs(device), parallel=True)
            assert backend.pool_spawns == 2
        assert backend.pool is None  # context exit closed it

    def test_closed_pool_refuses_dispatch(self):
        device = small_test_device(5, seed=31)
        pool = WorkerPool(device, num_workers=2)
        pool.close()
        assert pool.closed
        with pytest.raises(OSError):
            pool.run(_probe_circuits(device))

    def test_ship_bytes_monotonic_across_rebuild(self):
        """The executor diffs ship_bytes; close/rebuild must not make
        the merged counter go backwards."""
        device = small_test_device(5, seed=31)
        backend = LocalBackend(device)
        backend.submit_batch(_jobs(device), parallel=True, max_workers=2)
        before = backend.cache_stats()["ship_bytes"]
        assert before > 0
        backend.close()
        assert backend.cache_stats()["ship_bytes"] >= before
        backend.submit_batch(_jobs(device), parallel=True, max_workers=2)
        assert backend.cache_stats()["ship_bytes"] > before
        backend.close()


class TestEpochSync:
    def test_worker_epochs_track_parent(self):
        device = small_test_device(5, seed=31)
        circuits = _probe_circuits(device)
        with WorkerPool(device, num_workers=2) as pool:
            _, info = pool.run(circuits)
            assert info.epochs == [device.drift_epoch] * len(info.epochs)
            device.advance_time(_HOUR_US)
            bumped = device.drift_epoch
            _, info = pool.run(circuits)
            assert info.epochs == [bumped] * len(info.epochs)

    def test_no_stale_distributions_after_advance_time(self):
        """A mid-sweep ``advance_time`` in the parent must flush worker
        caches: pooled distributions equal a fresh in-process compute of
        the *new* snapshot, not the cached old one."""
        device = small_test_device(5, seed=31)
        circuits = _probe_circuits(device)
        with WorkerPool(device, num_workers=2) as pool:
            stale, _ = pool.run(circuits)  # warms worker caches
            device.advance_time(_HOUR_US)
            fresh_pool, _ = pool.run(circuits)
        fresh_local = [device.noisy_distribution(c) for c in circuits]
        assert fresh_pool == fresh_local
        assert fresh_pool != stale

    def test_idle_worker_catches_up_on_next_dispatch(self):
        """A worker that sat out a batch (fewer jobs than workers) must
        still sync forward when it next receives work."""
        device = small_test_device(5, seed=31)
        circuits = _probe_circuits(device)
        with WorkerPool(device, num_workers=4, affinity=False) as pool:
            # One job: only worker 0 participates; the rest stay stale.
            pool.run(circuits[:1])
            device.advance_time(_HOUR_US)
            pooled, info = pool.run(circuits)
            assert info.epochs == [device.drift_epoch] * len(info.epochs)
        local = [device.noisy_distribution(c) for c in circuits]
        assert pooled == local


class TestBitEquivalence:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_matches_in_process_snapshot(self, num_workers, affinity):
        """GHZ-5 + QAOA snapshot distributions are bit-identical on- and
        off-pool for every pool size and scheduling policy."""
        device = small_test_device(5, seed=31)
        circuits = _probe_circuits(device)
        local = [device.noisy_distribution(c) for c in circuits]
        with WorkerPool(
            device, num_workers=num_workers, affinity=affinity
        ) as pool:
            pooled, _ = pool.run(circuits)
        assert pooled == local

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_backend_counts_match_off_pool(self, max_workers):
        """End-to-end through LocalBackend across drift boundaries:
        pooled sampled *counts* equal the off-pool (max_workers=1)
        snapshot path, batch for batch."""
        device_a = small_test_device(5, seed=31)
        device_b = small_test_device(5, seed=31)
        backend_a = LocalBackend(device_a)
        backend_b = LocalBackend(device_b)
        for round_index in range(3):
            base = 100 * (round_index + 1)
            pooled = backend_a.submit_batch(
                _jobs(device_a, base_seed=base),
                parallel=True,
                max_workers=max_workers,
            )
            offpool = backend_b.submit_batch(
                _jobs(device_b, base_seed=base),
                parallel=True,
                max_workers=1,
            )
            assert [r.counts for r in pooled] == [
                r.counts for r in offpool
            ]
            device_a.advance_time(_HOUR_US)
            device_b.advance_time(_HOUR_US)
        assert device_a.clock_us == device_b.clock_us
        assert backend_a.pool_spawns == 1
        backend_a.close()

    def test_affinity_toggle_does_not_change_counts(self):
        device_a = small_test_device(5, seed=31)
        device_b = small_test_device(5, seed=31)
        with LocalBackend(device_a, affinity=True) as on, LocalBackend(
            device_b, affinity=False
        ) as off:
            got_on = on.submit_batch(
                _jobs(device_a), parallel=True, max_workers=2
            )
            got_off = off.submit_batch(
                _jobs(device_b), parallel=True, max_workers=2
            )
            assert [r.counts for r in got_on] == [
                r.counts for r in got_off
            ]
            assert on.cache_stats()["affinity_hits"] >= 0
            assert off.cache_stats()["affinity_hits"] == 0


class TestSchedulingAndStats:
    def test_affinity_groups_prefix_sharing_jobs(self):
        """Prefix-sharing GHZ candidates land adjacent on one worker and
        are counted as affinity hits."""
        device = small_test_device(5, seed=31)
        # Candidates differing only at the *last* site share most of
        # their instruction prefix.
        compiled = transpile(ghz(5), device)
        sequences = []
        for gate in ("cz", "xy", "cphase"):
            gates = ["cz"] * len(compiled.sites)
            gates[-1] = gate
            sequences.append(
                NativeGateSequence(tuple(compiled.sites), tuple(gates))
            )
        circuits = [
            nativize(
                compiled.scheduled,
                seq.as_site_map(),
                device.native_gates,
                name_suffix=f"_c{i}",
            )
            for i, seq in enumerate(sequences)
        ]
        with WorkerPool(device, num_workers=2, affinity=True) as pool:
            _, info = pool.run(circuits)
            assert info.affinity_hits >= 1
        with WorkerPool(device, num_workers=2, affinity=False) as pool:
            _, info = pool.run(circuits)
            assert info.affinity_hits == 0

    def test_executor_stats_harvest_pool_counters(self):
        device = small_test_device(5, seed=31)
        backend = LocalBackend(device)
        executor = BatchExecutor(backend, mode="parallel", max_workers=2)
        # Duplicate a circuit: affinity sorts identical chains adjacent,
        # so the repeat hits its worker's distribution memo in-batch.
        jobs = _jobs(device)
        jobs.append(Job(jobs[0].circuit, 200, seed=999, tag="probe"))
        executor.submit_batch(jobs)
        stats = executor.stats
        assert stats.workers == 2
        assert stats.ship_bytes > 0
        snapshot = stats.snapshot()
        assert snapshot["workers"] == 2
        assert snapshot["ship_bytes"] == stats.ship_bytes
        assert "worker pool: 2 workers" in stats.to_text()
        # Worker-side cache activity is merged into the shared ledger:
        # the duplicate circuit hit its worker's distribution memo.
        assert stats.sim_dist_hits > 0
        backend.close()
        assert executor.stats.workers == 2  # gauge until the next batch
