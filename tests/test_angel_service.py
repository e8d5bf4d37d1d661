"""The multi-tenant compile service: isolation, fairness, dedup.

The tentpole invariant, pinned as a matrix: a request compiled through
:class:`~repro.service.AngelService` yields **bit-identical**
``AngelResult`` sequences/traces and final counts to the same
:class:`~repro.service.RequestSpec` run through
:func:`~repro.service.run_standalone` — for any tenant mix, service
worker count, or backend (local / zero-fault remote), including a spec
whose drift lands exactly on a calibration-refresh boundary. On top of
that: cross-tenant probe dedup changes *who computes*, never *what*;
deficit round-robin bounds a light tenant's queue waits under a heavy
tenant's flood; and one tenant's flaky fault profile never perturbs
another tenant's outcome.
"""

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.circuit import QuantumCircuit
from repro.compiler import transpile
from repro.core import Angel, AngelConfig
from repro.core.sequence import NativeGateSequence
from repro.device.drift import DriftingValue
from repro.device.native_gates import cnot_decomposition, hadamard_native
from repro.device.presets import aspen11
from repro.exceptions import ReproError, ServiceError
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.experiments import ExperimentContext
from repro.programs import get_benchmark
from repro.service import (
    AdmissionError,
    AngelService,
    CloudQPUService,
    DeficitRoundRobin,
    FaultProfile,
    ProbeDistributionStore,
    RateLimitError,
    RequestSpec,
    TenantConfig,
    TokenBucket,
    replay_workload,
    run_standalone,
)
from repro.service.angel_service import _ChipDayMemo
from repro.service.tenant import TenantState
from tests.test_drift_state import assert_same_chip_day

#: Small, fast request specs. GHZ_n4 probes 7 CopyCats (1 + 2*3 links);
#: drift 4.0h lands exactly on the XY/CZ calibration-refresh boundary.
_SPECS = {
    "ghz": RequestSpec(
        program="GHZ_n4", shots=64, probe_shots=16, drift_hours=0.5
    ),
    "bv": RequestSpec(
        program="BV_n4", shots=64, probe_shots=16, drift_hours=0.5
    ),
    "boundary": RequestSpec(
        program="GHZ_n4", shots=64, probe_shots=16, drift_hours=4.0
    ),
}

_STANDALONE_CACHE = {}


def _reference(spec: RequestSpec):
    """Memoized standalone outcome for a spec (the ground truth)."""
    if spec not in _STANDALONE_CACHE:
        _STANDALONE_CACHE[spec] = run_standalone(spec)
    return _STANDALONE_CACHE[spec]


def _assert_bit_identical(outcome, reference) -> None:
    assert outcome.result.sequence == reference.result.sequence
    assert outcome.result.trace == reference.result.trace
    assert (
        outcome.result.reference_sequence
        == reference.result.reference_sequence
    )
    assert outcome.final_counts == reference.final_counts
    assert outcome.probes_run == reference.probes_run


def _spec_mix(num_tenants: int, backend: str):
    """A deterministic tenant->specs workload with overlapping programs."""
    keys = ["ghz", "bv", "boundary"]
    workload = {}
    for index in range(num_tenants):
        base = _SPECS[keys[index % len(keys)]]
        workload[f"t{index}"] = [replace(base, backend=backend)]
    return workload


# ---------------------------------------------------------------------------
# Tentpole: service-vs-standalone bit-equivalence matrix
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["local", "remote"])
@pytest.mark.parametrize("num_workers", [1, 4])
@pytest.mark.parametrize("num_tenants", [1, 4, 8])
def test_service_matches_standalone_matrix(
    num_tenants, num_workers, backend
):
    workload = _spec_mix(num_tenants, backend)
    outcomes = replay_workload(workload, num_workers=num_workers)
    for name, slots in outcomes.items():
        for slot, spec in zip(slots, workload[name]):
            assert not isinstance(slot, BaseException), slot
            _assert_bit_identical(slot, _reference(spec))


def test_concurrent_duplicate_specs_stay_identical():
    # Several tenants compiling the *same* spec simultaneously: dedup
    # may replay distributions across them, results must not move.
    spec = _SPECS["ghz"]
    workload = {f"t{i}": [spec, spec] for i in range(3)}
    outcomes = replay_workload(workload, num_workers=4)
    reference = _reference(spec)
    for slots in outcomes.values():
        for slot in slots:
            assert not isinstance(slot, BaseException), slot
            _assert_bit_identical(slot, reference)


def test_staggered_requests_dedup_with_identical_results():
    spec = _SPECS["ghz"]
    with AngelService(num_workers=2) as service:
        first = service.submit("alice", spec).result(timeout=120)
        second = service.submit("bob", spec).result(timeout=120)
        store_stats = service.store.stats()
    _assert_bit_identical(first, _reference(spec))
    _assert_bit_identical(second, _reference(spec))
    # The second request arrived after the first published: its probe
    # distributions (and the final) replay from the shared store.
    assert second.dedup_hits > 0
    assert first.dedup_hits + second.dedup_hits == store_stats["hits"]
    assert store_stats["publishes"] > 0


def test_dedup_disabled_still_identical():
    spec = _SPECS["ghz"]
    with AngelService(num_workers=2, dedup=False) as service:
        outcome = service.submit("solo", spec).result(timeout=120)
    assert service.store is None
    assert outcome.dedup_hits == 0
    _assert_bit_identical(outcome, _reference(spec))


# ---------------------------------------------------------------------------
# Isolation: faults on one tenant never touch another
# ---------------------------------------------------------------------------
def test_flaky_tenant_does_not_perturb_others():
    clean_spec = replace(_SPECS["ghz"], backend="remote")
    flaky_spec = replace(
        _SPECS["bv"],
        backend="remote",
        fault_profile="flaky",
        fault_seed=7,
    )
    workload = {
        "clean": [clean_spec, clean_spec],
        "flaky": [flaky_spec, flaky_spec],
    }
    outcomes = replay_workload(workload, num_workers=4)
    reference = _reference(clean_spec)
    for slot in outcomes["clean"]:
        assert not isinstance(slot, BaseException), slot
        _assert_bit_identical(slot, reference)
    # The flaky tenant itself is deterministic too: its spec pins the
    # fault stream, so its requests agree with a standalone run.
    flaky_reference = _reference(flaky_spec)
    for slot in outcomes["flaky"]:
        if isinstance(slot, BaseException):
            continue  # a permanent final-job failure is legitimate
        _assert_bit_identical(slot, flaky_reference)


def test_failed_request_resolves_handle_and_ledger():
    with AngelService(num_workers=1) as service:
        handle = service.submit(
            "oops", replace(_SPECS["ghz"], program="no_such_program")
        )
        with pytest.raises(Exception):
            handle.result(timeout=60)
        assert handle.exception(timeout=1) is not None
        service.drain()
        report = service.tenant_report()
    assert report["oops"]["failed"] == 1
    assert report["oops"]["completed"] == 0


# ---------------------------------------------------------------------------
# Fairness: DRR bounds a light tenant's waits under a heavy flood
# ---------------------------------------------------------------------------
def _p95(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def test_heavy_tenant_cannot_starve_light_tenant():
    heavy_spec = _SPECS["ghz"]
    light_spec = _SPECS["bv"]
    with AngelService(num_workers=2) as service:
        heavy = [service.submit("heavy", heavy_spec) for _ in range(10)]
        light = [service.submit("light", light_spec) for _ in range(2)]
        heavy_out = [h.result(timeout=600) for h in heavy]
        light_out = [h.result(timeout=600) for h in light]
        report = service.tenant_report()
    # Interleaved service: the light tenant's *last* completion must not
    # wait for the heavy backlog to clear.
    assert max(o.latency_s for o in light_out) < max(
        o.latency_s for o in heavy_out
    )
    # Bounded p95 queue-wait ratio: despite submitting 5x the work, the
    # heavy tenant cannot push the light tenant's p95 queue wait past
    # its own.
    light_p95 = _p95(report["light"]["queue_wait_s"])
    heavy_p95 = _p95(report["heavy"]["queue_wait_s"])
    assert light_p95 <= heavy_p95 * 1.5 + 1e-3
    assert report["heavy"]["completed"] == 10
    assert report["light"]["completed"] == 2


class _Unit:
    """A fake schedulable entry: the scheduler only reads ``cost``."""

    def __init__(self, cost):
        self.cost = cost


def _tenant(name, quantum, costs):
    state = TenantState(TenantConfig(name, quantum=quantum))
    state.queue.extend(_Unit(cost) for cost in costs)
    return state


def test_deficit_round_robin_accrual_and_forfeit():
    scheduler = DeficitRoundRobin()
    a = _tenant("a", 2, [6, 1])
    b = _tenant("b", 2, [1, 1, 1])
    # Round 1: a cannot afford its 6-job batch (deficit 2); b spends
    # its quantum on two 1-job units.
    picked = scheduler.next_round([a, b])
    assert [(t.name, e.cost) for t, e in picked] == [("b", 1), ("b", 1)]
    assert a.deficit == 2
    # Round 2 (cursor rotated to b): b drains and forfeits its
    # leftover deficit; a is still one quantum short.
    picked = scheduler.next_round([a, b])
    assert [(t.name, e.cost) for t, e in picked] == [("b", 1)]
    assert b.deficit == 0
    assert a.deficit == 4
    # Round 3: a finally affords the big batch, spending its whole
    # deficit — the 1-job tail waits for round 4.
    picked = scheduler.next_round([a, b])
    assert [(t.name, e.cost) for t, e in picked] == [("a", 6)]
    assert a.deficit == 0
    picked = scheduler.next_round([a, b])
    assert [(t.name, e.cost) for t, e in picked] == [("a", 1)]
    assert not a.queue


def test_deficit_round_robin_forced_progress():
    state = _tenant("big", 1, [50])
    scheduler = DeficitRoundRobin(round_budget_jobs=8)
    # Quantum 1 never reaches 50 within one round and 50 exceeds the
    # round budget — forced progress still schedules it (on credit)
    # rather than deadlocking.
    picked = scheduler.next_round([state])
    assert [e.cost for _, e in picked] == [50]
    assert state.deficit < 0


def test_deficit_round_robin_round_budget_soft_cap():
    state = _tenant("t", 100, [3] * 10)
    scheduler = DeficitRoundRobin(round_budget_jobs=7)
    picked = scheduler.next_round([state])
    # 3 + 3 fits under the 7-job budget; the third unit would cross it.
    assert [e.cost for _, e in picked] == [3, 3]
    assert len(state.queue) == 8


def test_deficit_round_robin_mid_round_drain_forfeits_deficit():
    # Quantum 6 covers both of a's units with 3 credit to spare; the
    # moment the queue drains mid-round the leftover is forfeited, so a
    # cannot bank idle credit against tenants that stay backlogged.
    a = _tenant("a", 6, [2, 1])
    b = _tenant("b", 2, [2, 2])
    scheduler = DeficitRoundRobin()
    picked = scheduler.next_round([a, b])
    assert [(t.name, e.cost) for t, e in picked] == [
        ("a", 2),
        ("a", 1),
        ("b", 2),
    ]
    assert a.deficit == 0.0  # not the leftover 3
    # New work next round starts from zero credit: one quantum only.
    a.queue.extend(_Unit(cost) for cost in [5, 2])
    picked = scheduler.next_round([a, b])
    assert [(t.name, e.cost) for t, e in picked] == [("b", 2), ("a", 5)]
    assert a.deficit == pytest.approx(1.0)
    assert len(a.queue) == 1  # the 2-job tail could not ride the drain


def test_deficit_round_robin_empty_tenant_never_accrues_or_starves():
    # An always-empty tenant is excluded from the round entirely: it
    # accrues no deficit (no unbounded credit to spend on arrival) and
    # the backlogged tenant is never held back by its presence.
    idle = _tenant("idle", 1000, [])
    busy = _tenant("busy", 2, [2] * 4)
    scheduler = DeficitRoundRobin()
    scheduled = []
    for _ in range(4):
        picked = scheduler.next_round([idle, busy])
        scheduled.extend((t.name, e.cost) for t, e in picked)
        assert idle.deficit == 0.0
    assert scheduled == [("busy", 2)] * 4
    assert not busy.queue
    # When the idle tenant finally submits, it competes from a clean
    # slate: exactly one fresh quantum of credit — 4 idle rounds banked
    # nothing — and the busy tenant still gets served the same round.
    idle.queue.extend(_Unit(cost) for cost in [1, 1500])
    busy.queue.append(_Unit(2))
    picked = scheduler.next_round([idle, busy])
    assert [(t.name, e.cost) for t, e in picked] == [
        ("idle", 1),
        ("busy", 2),
    ]
    assert idle.deficit == pytest.approx(999.0)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
def test_token_bucket_deterministic_clock():
    bucket = TokenBucket(rate=1.0, burst=2, now=0.0)
    assert bucket.try_acquire(now=0.0)
    assert bucket.try_acquire(now=0.0)
    assert not bucket.try_acquire(now=0.0)
    assert bucket.retry_after_s(now=0.0) == pytest.approx(1.0)
    assert bucket.try_acquire(now=1.0)  # one token refilled
    assert not bucket.try_acquire(now=1.0)
    assert bucket.try_acquire(now=10.0)  # refill caps at burst...
    assert bucket.try_acquire(now=10.0)
    assert not bucket.try_acquire(now=10.0)  # ...not at 9 banked tokens


def test_retry_after_hint_clamped_to_positive_floor():
    from repro.service.tenant import MIN_RETRY_AFTER_S

    # A very fast bucket refills in nanoseconds; the raw hint
    # (1 - tokens) / rate would round to ~0 and turn client backoff
    # into a hot retry loop. The hint is clamped to the floor instead.
    bucket = TokenBucket(rate=1e9, burst=1, now=0.0)
    assert bucket.try_acquire(now=0.0)
    hint = bucket.retry_after_s(now=0.0)
    assert hint >= MIN_RETRY_AFTER_S
    # 0.0 is reserved for "a token is available right now".
    assert bucket.retry_after_s(now=1.0) == 0.0
    slow = TokenBucket(rate=0.5, burst=1, now=0.0)
    assert slow.try_acquire(now=0.0)
    # Genuine waits are never shrunk by the clamp.
    assert slow.retry_after_s(now=0.0) == pytest.approx(2.0)


def test_admission_error_carries_retry_hint():
    with AngelService(
        num_workers=1,
        tenants=(TenantConfig("limited", rate=0.001, burst=1),),
    ) as service:
        service.submit("limited", _SPECS["ghz"]).result(timeout=120)
        with pytest.raises(AdmissionError) as excinfo:
            service.submit("limited", _SPECS["ghz"])
        assert excinfo.value.retry_after_s > 0
        report = service.tenant_report()
    assert report["limited"]["rejected"] == 1
    assert report["limited"]["submitted"] == 2


def test_duplicate_tenant_registration_rejected():
    with AngelService(num_workers=1) as service:
        service.add_tenant(TenantConfig("dup"))
        with pytest.raises(ServiceError):
            service.add_tenant(TenantConfig("dup"))


# ---------------------------------------------------------------------------
# Exec-layer coalescing seam: merged groups == separate batches
# ---------------------------------------------------------------------------
def _grouped_jobs(device):
    """Two groups of seeded GHZ-4 jobs against ``device``."""
    compiled = transpile(get_benchmark("GHZ_n4").build(), device)
    native_cz = compiled.nativized(
        NativeGateSequence.uniform(compiled.sites, "cz")
    )
    native_xy = compiled.nativized(
        NativeGateSequence.uniform(compiled.sites, "xy")
    )
    group_a = [
        Job(native_cz, 64, seed=101, tag="probe"),
        Job(native_xy, 64, seed=102, tag="probe"),
    ]
    group_b = [Job(native_cz, 64, seed=103, tag="probe")]
    return [group_a, group_b]


def test_submit_grouped_matches_separate_batches():
    sequential_device = aspen11(seed=23)
    sequential = BatchExecutor(LocalBackend(sequential_device))
    separate = [
        sequential.submit_batch(group)
        for group in _grouped_jobs(sequential_device)
    ]

    grouped_device = aspen11(seed=23)
    grouped_executor = BatchExecutor(LocalBackend(grouped_device))
    grouped = grouped_executor.submit_grouped(_grouped_jobs(grouped_device))

    assert len(grouped) == len(separate)
    for merged_group, separate_group in zip(grouped, separate):
        assert len(merged_group) == len(separate_group)
        for merged, single in zip(merged_group, separate_group):
            assert merged.counts == single.counts
    assert grouped_executor.stats.coalesced_groups == 2
    assert sequential.stats.coalesced_groups == 0


def test_submit_grouped_empty_and_ragged_groups():
    device = aspen11(seed=23)
    executor = BatchExecutor(LocalBackend(device))
    groups = _grouped_jobs(device)
    results = executor.submit_grouped([[], groups[0], [], groups[1]])
    assert [len(group) for group in results] == [0, 2, 0, 1]
    assert executor.submit_grouped([]) == []
    assert executor.submit_grouped([[], []]) == [[], []]


# ---------------------------------------------------------------------------
# Window-aware admission
# ---------------------------------------------------------------------------
#: Deterministic windows, no stochastic faults — isolates the alignment
#: logic from fault injection.
_WINDOWED = FaultProfile(
    name="windowed",
    window_us=10_000_000.0,
    recalibration_us=500_000.0,
    max_jobs_per_window=4,
)


def _window_jobs(device, count):
    compiled = transpile(get_benchmark("GHZ_n4").build(), device)
    native = compiled.nativized(
        NativeGateSequence.uniform(compiled.sites, "cz")
    )
    return [
        Job(native, 16, seed=200 + index, tag="probe")
        for index in range(count)
    ]


def test_align_window_waits_out_quota():
    device = aspen11(seed=31)
    service = CloudQPUService(device, _WINDOWED)
    jobs = _window_jobs(device, 2)
    # Fill the window to one short of its quota: a 2-job batch bounces.
    service.execute_batch(_window_jobs(device, 3))
    with pytest.raises(RateLimitError):
        service.execute_batch(jobs)
    before = device.clock_us
    waited = service.align_window(len(jobs))
    assert waited > 0
    assert device.clock_us > before
    assert service.stats.window_aligns == 1
    assert service.stats.window_align_wait_us == pytest.approx(waited)
    outcome = service.execute_batch(jobs)
    assert outcome.failed_indices == []


def test_align_window_noop_when_window_fits():
    device = aspen11(seed=31)
    service = CloudQPUService(device, _WINDOWED)
    before = device.clock_us
    assert service.align_window(4) == 0.0
    assert device.clock_us == before
    assert service.stats.window_aligns == 0


def test_align_window_noop_without_windows():
    device = aspen11(seed=31)
    service = CloudQPUService(device)  # ZERO_FAULTS: no windows
    before = device.clock_us
    assert service.align_window(10_000) == 0.0
    assert device.clock_us == before
    state = service.window_state()
    assert state["remaining_jobs"] is None
    assert state["remaining_us"] is None


def test_execute_batch_align_window_flag():
    device = aspen11(seed=37)
    service = CloudQPUService(device, _WINDOWED)
    service.execute_batch(_window_jobs(device, 3))
    outcome = service.execute_batch(
        _window_jobs(device, 2), align_window=True
    )
    assert outcome.failed_indices == []
    assert service.stats.window_aligns == 1


# ---------------------------------------------------------------------------
# Satellite: executor stats surface dedup/coalescing
# ---------------------------------------------------------------------------
def test_executor_stats_surface_shared_and_coalesced():
    store = ProbeDistributionStore()
    spec = _SPECS["ghz"]
    run_standalone(spec, store)  # publish this spec's distributions
    context = ExperimentContext.create(
        device_name=spec.device_name,
        seed=spec.seed,
        calibration_seed=spec.calibration_seed,
        drift_hours=spec.drift_hours,
    )
    try:
        assert store.attach(context.device)
        angel = Angel(
            context.device,
            context.calibration,
            AngelConfig(
                probe_shots=spec.probe_shots, seed=spec.angel_seed
            ),
            executor=context.executor,
        )
        angel.compile_and_select(get_benchmark(spec.program).build())
        stats = context.executor.stats
        assert stats.sim_dist_hits > 0
        snapshot = stats.snapshot()
        assert snapshot["sim_dist_hits"] == stats.sim_dist_hits
        assert "sim_shared_publishes" in snapshot
        assert "coalesced_groups" in snapshot
        text = stats.to_text()
        assert "probe dedup" in text
        assert "cross-request" in text
    finally:
        context.close()


def test_probe_distribution_store_lru_and_stats():
    store = ProbeDistributionStore(max_entries=2)
    store.put(("k1",), {"00": 0.5, "11": 0.5})
    store.put(("k2",), {"01": 1.0})
    store.put(("k3",), {"10": 1.0})  # evicts k1
    assert store.get(("k1",)) is None
    assert store.get(("k2",)) == {"01": 1.0}
    stats = store.stats()
    assert stats["entries"] == 2
    assert stats["evictions"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    # Returned dicts are copies: mutation cannot poison the store.
    entry = store.get(("k3",))
    entry["10"] = 0.0
    assert store.get(("k3",)) == {"10": 1.0}


# ---------------------------------------------------------------------------
# Satellite: context lifecycle
# ---------------------------------------------------------------------------
def test_context_close_is_idempotent():
    context = ExperimentContext.create(drift_hours=0.5)
    context.close()
    context.close()  # second close is a no-op, not an error


def test_context_manager_closes():
    with ExperimentContext.create(drift_hours=0.5) as context:
        assert context.device is not None
    context.close()  # already closed by __exit__; still a no-op


def test_service_close_is_reentrant_and_rejects_after():
    service = AngelService(num_workers=1)
    service.close()
    service.close()
    with pytest.raises(ServiceError):
        service.submit("late", _SPECS["ghz"])


# ---------------------------------------------------------------------------
# Observability: spans and per-tenant counters
# ---------------------------------------------------------------------------
def test_service_emits_spans_and_tenant_counters():
    from repro.obs import MetricsRegistry, Tracer
    from repro.obs import runtime as obs

    tracer = Tracer()
    registry = MetricsRegistry()
    previous = obs.install(tracer, registry)
    try:
        with AngelService(num_workers=2) as service:
            service.submit("alice", _SPECS["ghz"]).result(timeout=120)
            service.submit("bob", _SPECS["ghz"]).result(timeout=120)
    finally:
        obs.uninstall(previous)
    names = {span.name for span in tracer.spans}
    assert "svc.request" in names
    assert "svc.coalesce" in names
    request_spans = [s for s in tracer.spans if s.name == "svc.request"]
    assert {s.attributes["tenant"] for s in request_spans} == {
        "alice",
        "bob",
    }
    for span in request_spans:
        assert span.attributes["latency_s"] >= 0.0
        assert span.attributes["probes"] > 0
    counters = registry.snapshot()["counters"]
    assert counters["service.tenant.alice.completed"] == 1
    assert counters["service.tenant.bob.completed"] == 1
    assert counters["service.tenant.bob.dedup_hits"] > 0


# ---------------------------------------------------------------------------
# Chip-day memo: requests run on clones of one post-create template
# ---------------------------------------------------------------------------
def _recipe(spec: RequestSpec):
    """The ``ExperimentContext.create`` arguments a request passes."""
    return {
        "device_name": spec.device_name,
        "seed": spec.seed,
        "calibration_seed": spec.calibration_seed,
        "drift_hours": spec.drift_hours,
        "backend": spec.backend,
        "fault_profile": spec.fault_profile,
        "fault_seed": spec.fault_seed,
    }


def _assert_same_context(left, right) -> None:
    assert_same_chip_day(
        (left.device, left.service), (right.device, right.service)
    )
    assert left.rng.bit_generator.state == right.rng.bit_generator.state
    assert left.device.execution_log == right.device.execution_log


def _bell(context):
    link = context.pick_link()
    circuit = QuantumCircuit(max(link) + 1, name="bell")
    for gate in hadamard_native(link[0]):
        circuit.append(gate)
    for gate in cnot_decomposition("cz", *link):
        circuit.append(gate)
    circuit.measure(link[0])
    circuit.measure(link[1])
    return circuit


@pytest.mark.parametrize(
    "recipe",
    [
        _recipe(_SPECS["ghz"]),
        _recipe(replace(_SPECS["boundary"], drift_hours=30.0)),
        _recipe(replace(_SPECS["ghz"], device_name="aspen-m-1", seed=1)),
    ],
    ids=["aspen-11-0.5h", "aspen-11-30h", "aspen-m-1-0.5h"],
)
def test_clone_equals_fresh_create(recipe):
    clone = ExperimentContext.create(**recipe).clone()
    fresh = ExperimentContext.create(**recipe)
    _assert_same_context(clone, fresh)
    circuit = _bell(fresh)
    for context in (clone, fresh):  # and they stay equal when driven
        context.device.advance_time(3_600e6)
        context.service.maybe_recalibrate()
        context.device.run(circuit, 32)
        context.measured_success_rate(circuit, {"00": 0.5, "11": 0.5}, 32)
    _assert_same_context(clone, fresh)


def test_clones_share_no_mutable_state():
    recipe = _recipe(_SPECS["ghz"])
    memo = _ChipDayMemo()
    first, second = memo.context(recipe), memo.context(recipe)
    (template,) = memo._templates.values()
    untouched = ExperimentContext.create(**recipe)
    # Move the first clone every way a request (or a test) can.
    circuit = _bell(first)
    first.device.advance_time(5 * 3_600e6)
    first.device.run(circuit, 32)
    first.executor.submit(Job(circuit, 32, seed=3))
    first.service.full_calibration()
    first.rng.integers(100)
    qubit = first.pick_link()[0]
    first.device.qubit_params[qubit].t1_us = DriftingValue.fixed(5.0)
    for other in (second, template):
        _assert_same_context(other, untouched)
        assert len(other.device.channel_cache) == 0
        stats = other.device.sim_cache.stats()
        assert stats["dist_hits"] == stats["dist_misses"] == 0
        assert other.device.shared_executor is None
    assert first.device.topology is template.device.topology


def test_unknown_device_fails_its_handle_and_stores_nothing():
    with AngelService(num_workers=2) as service:
        handle = service.submit(
            "alice", replace(_SPECS["ghz"], device_name="aspen-99")
        )
        with pytest.raises(ReproError):
            handle.result(timeout=120)
        assert len(service._chip_days) == 0
        outcome = service.submit("alice", _SPECS["ghz"]).result(timeout=120)
        assert len(service._chip_days) == 1
    _assert_bit_identical(outcome, _reference(_SPECS["ghz"]))


def test_concurrent_first_misses_match_standalone():
    specs = [
        replace(_SPECS["ghz"], program=program)
        for program in ("GHZ_n4", "BV_n4", "tele_n2", "toff_n3")
    ]
    with AngelService(num_workers=2) as service:
        handles = [
            service.submit(f"t{index}", spec)
            for index, spec in enumerate(specs)
        ]
        outcomes = [handle.result(timeout=120) for handle in handles]
        assert len(service._chip_days) == 1
    for outcome, spec in zip(outcomes, specs):
        _assert_bit_identical(outcome, _reference(spec))


def test_memo_under_thread_contention_hands_out_exact_clones(monkeypatch):
    from repro.service import angel_service

    # Three recipes through a two-slot memo: misses, hits and evictions
    # race each other, and every request must still get an exact clone.
    monkeypatch.setattr(angel_service, "_CHIP_DAY_MEMO_SIZE", 2)
    recipes = [
        _recipe(replace(_SPECS["ghz"], seed=seed, drift_hours=0.25))
        for seed in (11, 12, 13)
    ]
    references = [ExperimentContext.create(**recipe) for recipe in recipes]
    memo = _ChipDayMemo()
    failures = []

    def worker(offset):
        try:
            for step in range(4):
                index = (offset + step) % len(recipes)
                context = memo.context(recipes[index])
                _assert_same_context(context, references[index])
                context.device.advance_time(3_600e6)  # private to the clone
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(offset,)) for offset in range(8)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(memo) <= 2


def test_memo_hits_emit_clone_spans():
    from repro.obs import Tracer
    from repro.obs import runtime as obs

    tracer = Tracer()
    previous = obs.install(tracer, None)
    try:
        with AngelService(num_workers=1) as service:
            service.submit("alice", _SPECS["ghz"]).result(timeout=120)
            service.submit("bob", _SPECS["ghz"]).result(timeout=120)
    finally:
        obs.uninstall(previous)
    names = [span.name for span in tracer.spans]
    assert names.count("context.create") == 1
    assert names.count("context.clone") == 1


# ---------------------------------------------------------------------------
# Failure edges: every handle resolves, no thread outlives close()
# ---------------------------------------------------------------------------
def _leftover_threads(before):
    return [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("angel-svc")
    ]


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_scheduler_exception_fails_every_handle_without_hanging():
    before = set(threading.enumerate())
    service = AngelService(num_workers=2)
    boom = RuntimeError("observer failed")

    def explode(*args, **kwargs):
        raise boom

    service._observe_request = explode
    handles = [
        service.submit("alice", _SPECS["ghz"]),
        service.submit("bob", _SPECS["bv"]),
    ]
    service.drain(timeout=60)  # returns instead of hanging
    for handle in handles:
        error = handle.exception(timeout=1)
        assert isinstance(error, ServiceError)
        assert error.__cause__ is boom
    with pytest.raises(ServiceError):
        service.submit("carol", _SPECS["ghz"])
    service.close(timeout=60)
    assert not service._scheduler_thread.is_alive()
    assert _leftover_threads(before) == []


def test_close_with_requests_in_flight_resolves_every_handle():
    before = set(threading.enumerate())
    specs = [_SPECS["ghz"], _SPECS["bv"], _SPECS["boundary"]]
    service = AngelService(num_workers=2)
    handles = [
        service.submit(f"t{index}", spec) for index, spec in enumerate(specs)
    ]
    service.close()
    for handle, spec in zip(handles, specs):
        assert handle.done()
        _assert_bit_identical(handle.result(timeout=0), _reference(spec))
    assert _leftover_threads(before) == []


def test_close_timeout_bounds_the_call_and_threads_still_stop():
    before = set(threading.enumerate())
    service = AngelService(num_workers=1)
    # Hold the first round inside its first chip-day build.
    release = threading.Event()
    build = service._chip_days.context

    def held_build(recipe):
        release.wait(timeout=30)
        return build(recipe)

    service._chip_days.context = held_build
    handles = [
        service.submit(f"t{index}", spec)
        for index, spec in enumerate(
            [_SPECS["ghz"], _SPECS["bv"], _SPECS["boundary"]]
        )
    ]
    started = time.monotonic()
    with pytest.raises(ServiceError):
        service.close(timeout=0.2)
    assert time.monotonic() - started < 10  # not the held round's 30 s
    assert service._scheduler_thread.is_alive()
    with pytest.raises(ServiceError):
        service.submit("late", _SPECS["ghz"])
    release.set()
    service.close()  # waits for the round, then the threads
    for handle in handles:
        assert handle.done()
        error = handle.exception(timeout=0)
        assert error is None or isinstance(error, ServiceError)
    assert any(handle.exception(timeout=0) is not None for handle in handles)
    assert _leftover_threads(before) == []
