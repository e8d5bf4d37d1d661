"""Cross-product bit-equivalence of execution configurations.

One parametrized matrix pins the repo's central execution contract: for
sequential probe batches with per-job seeds, the counts a probe batch
produces are **bit-identical** across

  {fused pipeline on, off} x {local backend, zero-fault remote}.

"Off" sets ``device.sim_cache = None``: the per-gate reference path.

All four combinations run the same seeded GHZ/QAOA probe batches on the
same chip-day and must produce byte-for-byte equal counts, including
across a mid-batch ``advance_time`` drift boundary applied identically
to every combination. The pipeline-on local path is the reference;
everything else must match it exactly — not statistically.
"""

import pytest

from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device.presets import aspen11
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.metrics import success_rate_from_counts
from repro.programs.ghz import ghz
from repro.programs.qaoa import qaoa_n5
from repro.service import (
    CloudQPUService,
    RemoteBackend,
    fault_profile,
)

_HOUR_US = 3_600e6


def _device(fused: bool):
    device = aspen11(seed=17)
    if not fused:
        device.sim_cache = None
    return device


def _probe_jobs(device):
    """Seeded GHZ-4 and QAOA-5 probe batches (the search's workload
    shape: per-gate candidates sharing long circuit prefixes)."""
    jobs = []
    seed = 9000
    for program in (ghz(4), qaoa_n5()):
        compiled = transpile(program, device)
        for gate in ("cz", "xy", "cphase"):
            sequence = NativeGateSequence.uniform(compiled.sites, gate)
            circuit = nativize(
                compiled.scheduled,
                sequence.as_site_map(),
                device.native_gates,
                name_suffix=f"_{gate}",
            )
            jobs.append(
                Job(circuit, 256, seed=seed, tag="probe", job_id=circuit.name)
            )
            seed += 1
    return jobs


def _run_combo(fused: bool, backend_kind: str):
    """Counts from the two probe batches under one configuration, with
    an identical mid-batch drift boundary between them."""
    device = _device(fused)
    if backend_kind == "local":
        backend = LocalBackend(device)
    else:
        service = CloudQPUService(device, fault_profile("none"), seed=0)
        backend = RemoteBackend(service, seed=0)
    executor = BatchExecutor(backend)
    jobs = _probe_jobs(device)
    half = len(jobs) // 2
    first = executor.submit_batch(jobs[:half])
    # Drift boundary between batches: every combination crosses the same
    # simulated-time epoch at the same point in the workload.
    device.advance_time(2.0 * _HOUR_US)
    second = executor.submit_batch(jobs[half:])
    return [
        (result.job_id, dict(sorted(result.counts.items())))
        for result in first + second
    ]


# Ids keep their ``workers_1`` segment (one in-process worker) so each
# case's test id is stable.
_MATRIX = [
    pytest.param(
        fused,
        backend_kind,
        id=f"cache_{'on' if fused else 'off'}-workers_1-{backend_kind}",
    )
    for fused in (True, False)
    for backend_kind in ("local", "remote")
]


@pytest.fixture(scope="module")
def reference_counts():
    """The fused, local-backend baseline."""
    return _run_combo(fused=True, backend_kind="local")


@pytest.mark.parametrize("fused,backend_kind", _MATRIX)
def test_counts_bit_identical_across_matrix(
    fused, backend_kind, reference_counts
):
    counts = _run_combo(fused, backend_kind)
    assert len(counts) == len(reference_counts)
    for (job_id, got), (ref_id, want) in zip(counts, reference_counts):
        assert job_id == ref_id
        assert got == want, (
            f"{job_id}: counts diverged under fused={fused}, "
            f"backend={backend_kind}"
        )


def test_matrix_reference_is_deterministic(reference_counts):
    """Rerunning the reference combination reproduces itself exactly
    (guards the fixture against hidden global state)."""
    again = _run_combo(fused=True, backend_kind="local")
    assert again == reference_counts


# ------------------------------------------------- optimization axis


def _final_runs(optimization_level, explicit=True):
    """(name, ideal, counts) per program at one optimization level."""
    device = _device(fused=True)
    executor = BatchExecutor(LocalBackend(device))
    runs = []
    seed = 9500
    for program in (ghz(4), qaoa_n5()):
        if explicit:
            compiled = transpile(
                program, device, optimization_level=optimization_level
            )
        else:
            compiled = transpile(program, device)
        sequence = NativeGateSequence.uniform(compiled.sites, "cz")
        native = compiled.nativized(sequence)
        result = executor.submit(
            Job(native, 2048, seed=seed, tag="final")
        )
        runs.append(
            (program.name, compiled.ideal_distribution(), result.counts)
        )
        seed += 1
    return runs


def _tv_distance(left_counts, right_counts):
    left_total = sum(left_counts.values())
    right_total = sum(right_counts.values())
    keys = set(left_counts) | set(right_counts)
    return 0.5 * sum(
        abs(
            left_counts.get(key, 0) / left_total
            - right_counts.get(key, 0) / right_total
        )
        for key in keys
    )


def test_opt_level_zero_counts_bit_identical():
    """``optimization_level=0`` IS today's pipeline: byte-for-byte the
    same final counts as a transpile call that never mentions it."""
    explicit = _final_runs(0, explicit=True)
    implicit = _final_runs(0, explicit=False)
    for (name, _, got), (ref_name, _, want) in zip(explicit, implicit):
        assert name == ref_name
        assert got == want


def _load_equivalence_imports():
    from repro.fleet import FleetSpec
    from repro.loadgen import (
        ArrivalSpec,
        LoadGenerator,
        TenantLoad,
        WorkloadSpec,
    )
    from repro.service import RequestSpec, run_standalone

    return (
        FleetSpec,
        ArrivalSpec,
        LoadGenerator,
        TenantLoad,
        WorkloadSpec,
        RequestSpec,
        run_standalone,
    )


#: Memoized standalone references shared across load-axis combinations
#: (the same spec appears under several tenant/fleet shapes).
_LOAD_REFERENCES = {}


_LOAD_MATRIX = [
    pytest.param(
        num_tenants,
        backend_kind,
        fleet,
        id=f"tenants_{num_tenants}-{backend_kind}-"
        + (f"fleet_{fleet}" if fleet else "no_fleet"),
    )
    for num_tenants in (1, 4)
    for backend_kind in ("local", "remote")
    for fleet in (0, 2)
]


@pytest.mark.parametrize("num_tenants,backend_kind,fleet", _LOAD_MATRIX)
def test_load_driven_outcomes_bit_identical(
    num_tenants, backend_kind, fleet
):
    """The load-driven axis of the service equivalence contract:
    {1, 4 tenants} x {local, zero-fault remote} x {no fleet, 2-replica
    fleet}. Every ``CompileOutcome`` a :class:`LoadGenerator` run
    produces must be bit-identical to ``run_standalone`` on the same
    spec — replica-adjusted first in fleet mode, where the reference
    for a request routed to replica ``i`` is the standalone run of
    ``fleet.replicas[i].adjust(spec)``."""
    (
        FleetSpec,
        ArrivalSpec,
        LoadGenerator,
        TenantLoad,
        WorkloadSpec,
        RequestSpec,
        run_standalone,
    ) = _load_equivalence_imports()

    workload = WorkloadSpec(
        name=f"equiv-{num_tenants}t-{backend_kind}-f{fleet}",
        seed=21,
        base=RequestSpec(
            program="GHZ_n4",
            shots=32,
            probe_shots=8,
            drift_hours=0.5,
            backend=backend_kind,
            fault_profile="none",
        ),
        workers=2,
        fleet=fleet,
        tenants=tuple(
            TenantLoad(
                name=f"tenant-{index}",
                arrival=ArrivalSpec(
                    kind="burst", bursts=1, burst_size=2, spacing_s=0.0
                ),
                programs=(
                    ("GHZ_n4",) if index % 2 == 0 else ("QAOA_n5",)
                ),
            )
            for index in range(num_tenants)
        ),
    )
    report = LoadGenerator(workload).run()
    assert report.failed == 0
    assert report.rejected == 0
    assert len(report.completed) == workload.total_requests

    fleet_spec = FleetSpec.create(fleet) if fleet else None
    for outcome in report.completed:
        spec = outcome.spec
        if fleet_spec is not None:
            assert outcome.fleet_replica is not None
            spec = fleet_spec.replicas[outcome.fleet_replica].adjust(
                spec
            )
        else:
            assert outcome.fleet_replica is None
        if spec not in _LOAD_REFERENCES:
            _LOAD_REFERENCES[spec] = run_standalone(spec)
        reference = _LOAD_REFERENCES[spec]
        assert outcome.result.sequence == reference.result.sequence
        assert outcome.result.trace == reference.result.trace
        assert outcome.final_counts == reference.final_counts
        assert outcome.device_time_us == reference.device_time_us


def test_opt_level_two_tv_bounded_and_fidelity_holds():
    """Level 2 may reshape the executable (native cleanup shortens
    probes and finals) but must stay close in distribution and not
    degrade success rate beyond sampling tolerance."""
    base = _final_runs(0)
    opt = _final_runs(2)
    for (name, ideal, counts0), (_, _, counts2) in zip(base, opt):
        tv = _tv_distance(counts0, counts2)
        assert tv <= 0.15, f"{name}: level-2 TV {tv:.3f} out of budget"
        sr0 = success_rate_from_counts(ideal, counts0)
        sr2 = success_rate_from_counts(ideal, counts2)
        assert sr2 >= sr0 - 0.05, (
            f"{name}: level-2 success rate {sr2:.3f} fell below "
            f"level-0 {sr0:.3f} beyond tolerance"
        )
