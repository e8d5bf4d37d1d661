"""Channel cache correctness: bit-identical physics, drift invalidation."""

import numpy as np
import pytest

from repro.device import small_test_device
from repro.sim import ChannelCache
from tests.oracle import use_kraus_oracle

#: An idle wire's relaxation over 100 ns, on the device's first qubit.
_IDLE_KEY = ("fused-idle", 0, (100.0,))


def _ghz_native(device):
    from repro.compiler import transpile
    from repro.compiler.nativization import nativize
    from repro.core.sequence import NativeGateSequence
    from repro.programs.ghz import ghz

    compiled = transpile(ghz(4), device)
    sequence = NativeGateSequence.uniform(compiled.sites, "cz")
    return nativize(compiled.scheduled, sequence.as_site_map(), device.native_gates)


class TestChannelCache:
    def test_miss_then_hit_returns_same_object(self):
        cache = ChannelCache()
        built = []

        def factory():
            built.append(object())
            return built[-1]

        first = cache.get(("k", 1.0), factory)
        second = cache.get(("k", 1.0), factory)
        assert first is second
        assert len(built) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert len(cache) == 1

    def test_invalidate_clears_entries(self):
        cache = ChannelCache()
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        assert len(cache) == 2
        cache.invalidate(epoch=1)
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1
        # Re-population works after invalidation.
        assert cache.get("a", lambda: 3) == 3

    def test_overflow_evicts_oldest_not_wholesale(self):
        """Overflow evicts one oldest entry; the rest stay warm."""
        cache = ChannelCache(max_entries=4)
        for index in range(4):
            cache.get(("k", index), lambda index=index: index)
        assert len(cache) == 4
        assert cache.stats()["evictions"] == 0
        # A fifth insert evicts exactly the oldest key, nothing else.
        cache.get(("k", 4), lambda: 4)
        assert len(cache) == 4
        assert cache.stats()["evictions"] == 1
        rebuilt = []
        for index in range(1, 5):
            cache.get(("k", index), lambda: rebuilt.append(index))
        assert rebuilt == []  # survivors are all hits
        cache.get(("k", 0), lambda: rebuilt.append(0))
        assert rebuilt == [0]  # only the evicted key rebuilds

    def test_eviction_order_is_insertion_order(self):
        cache = ChannelCache(max_entries=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("c", lambda: 3)  # evicts "a"
        cache.get("d", lambda: 4)  # evicts "b"
        assert cache.stats()["evictions"] == 2
        assert cache.get("c", lambda: -1) == 3
        assert cache.get("d", lambda: -1) == 4

    def test_hit_refreshes_recency_true_lru(self):
        """A hit moves the entry to the back of the eviction queue."""
        cache = ChannelCache(max_entries=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: -1)  # hit: "b" is now least recent
        cache.get("c", lambda: 3)  # evicts "b", not "a"
        assert cache.get("a", lambda: -1) == 1  # still resident
        rebuilt = []
        cache.get("b", lambda: rebuilt.append("b") or 9)
        assert rebuilt == ["b"]  # "b" was the one evicted

    def test_invalidation_does_not_count_as_eviction(self):
        cache = ChannelCache(max_entries=4)
        cache.get("a", lambda: 1)
        cache.invalidate(epoch=1)
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["evictions"] == 0


class TestBitIdenticalChannels:
    def test_cached_thermal_channel_bit_identical(self):
        """A cache hit returns exactly what a fresh build would produce."""
        device = small_test_device(3, seed=5)
        cached = device._channel(_IDLE_KEY)
        again = device._channel(_IDLE_KEY)
        assert again is cached  # hit: the very same object
        assert len(device.channel_cache) == 1
        fresh = device._build_channel(_IDLE_KEY)
        assert fresh is not cached
        # Bit-identical, not merely close: the cache holds the channels
        # of the current parameter values only.
        assert np.array_equal(cached.matrix, fresh.matrix)

    def test_cached_distribution_matches_uncached(self):
        cached_dev = small_test_device(4, seed=9)
        plain_dev = use_kraus_oracle(small_test_device(4, seed=9))
        circuit = _ghz_native(cached_dev)
        dist_cached = cached_dev.noisy_distribution(circuit)
        dist_plain = plain_dev.noisy_distribution(circuit)
        assert set(dist_cached) == set(dist_plain)
        for key in dist_plain:
            assert dist_cached[key] == pytest.approx(dist_plain[key], abs=1e-12)

    def test_cache_populates_and_hits_on_reuse(self):
        device = small_test_device(4, seed=9)
        circuit = _ghz_native(device)
        device.noisy_distribution(circuit)
        misses_after_first = device.channel_cache.stats()["misses"]
        device.noisy_distribution(circuit)
        stats = device.channel_cache.stats()
        assert stats["misses"] == misses_after_first  # all hits second time
        assert stats["hits"] > 0


class TestDriftInvalidation:
    def test_advance_time_bumps_epoch_and_invalidates(self):
        device = small_test_device(3, seed=5)
        device._channel(_IDLE_KEY)
        assert len(device.channel_cache) == 1
        epoch_before = device.drift_epoch
        device.advance_time(1e6)
        assert device.drift_epoch == epoch_before + 1
        assert len(device.channel_cache) == 0
        assert device.channel_cache.stats()["invalidations"] >= 1

    def test_zero_advance_keeps_cache(self):
        device = small_test_device(3, seed=5)
        device._channel(_IDLE_KEY)
        device.advance_time(0.0)
        assert len(device.channel_cache) == 1

    def test_drifted_counts_differ_from_stale_cache_counts(self):
        """After drift, the cached path tracks the *new* physics.

        If invalidation failed, the post-drift distribution would equal
        the pre-drift one (stale fused channels); instead it must match
        an identically-drifted device on the Kraus oracle and differ from
        the pre-drift result.
        """
        cached_dev = small_test_device(4, seed=9)
        plain_dev = use_kraus_oracle(small_test_device(4, seed=9))
        circuit = _ghz_native(cached_dev)

        before = cached_dev.noisy_distribution(circuit)
        hours = 40 * 3600e6
        cached_dev.advance_time(hours)
        plain_dev.advance_time(hours)
        after_cached = cached_dev.noisy_distribution(circuit)
        after_plain = plain_dev.noisy_distribution(circuit)

        for key in after_plain:
            assert after_cached[key] == pytest.approx(
                after_plain[key], abs=1e-12
            )
        drift_shift = max(
            abs(after_cached[k] - before.get(k, 0.0)) for k in after_cached
        )
        assert drift_shift > 1e-6, "40h of drift must move the distribution"

    def test_run_counts_change_after_drift_same_seed(self):
        device = small_test_device(4, seed=9)
        circuit = _ghz_native(device)
        counts_before = device.run(circuit, 2048, seed=77)
        device.advance_time(40 * 3600e6)
        counts_after = device.run(circuit, 2048, seed=77)
        assert counts_before != counts_after


def _bell_01():
    from repro.circuit.circuit import QuantumCircuit

    circuit = QuantumCircuit(5, name="bell_01")
    circuit.rz(np.pi / 2, 0)
    circuit.rx(np.pi / 2, 0)
    circuit.cz(0, 1)
    circuit.measure(0)
    circuit.measure(1)
    return circuit


def _edit_cz_depolarizing(device):
    from repro.device.drift import DriftingValue

    device.gate_params[((0, 1), "cz")].depolarizing = DriftingValue.fixed(0.2)


class TestParameterEdits:
    """An edit without a clock advance replaces the parameter values; the
    channel cache (whose fused keys carry no values) must not serve
    channels built from the old ones."""

    @pytest.mark.parametrize("pipeline", ["fused", "reference"])
    def test_edit_without_drift_rebuilds_channels(self, pipeline):
        device = small_test_device(5, seed=9)
        fresh = small_test_device(5, seed=9)
        if pipeline == "reference":
            use_kraus_oracle(device)
            use_kraus_oracle(fresh)
        before = device.noisy_distribution(_bell_01())
        _edit_cz_depolarizing(device)
        _edit_cz_depolarizing(fresh)
        after = device.noisy_distribution(_bell_01())
        assert after == fresh.noisy_distribution(_bell_01())
        assert before["00"] == pytest.approx(0.4897, abs=1e-4)
        assert after["00"] == pytest.approx(0.4499, abs=1e-4)

    def test_store_attached_run_after_edit_publishes_fresh_physics(self):
        from repro.service import ProbeDistributionStore

        store = ProbeDistributionStore()
        device = small_test_device(5, seed=9)
        twin = small_test_device(5, seed=9)
        fresh = small_test_device(5, seed=9)
        store.attach(device)
        store.attach(twin)
        device.noisy_distribution(_bell_01())
        for edited in (device, twin, fresh):
            _edit_cz_depolarizing(edited)
        expected = fresh.noisy_distribution(_bell_01())
        assert device.run(_bell_01(), 2000, seed=4) == fresh.run(
            _bell_01(), 2000, seed=4
        )
        # The twin sits where the device ran: it is served what the run
        # published under the post-edit fingerprint.
        assert twin.noisy_distribution(_bell_01()) == expected
        assert twin.sim_cache.dist_hits == 1
