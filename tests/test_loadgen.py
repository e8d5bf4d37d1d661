"""Tests for the load/latency harness (:mod:`repro.loadgen`).

Four layers, cheapest first:

* arrival-process generators — seeded determinism, statistical sanity,
  serialization round-trips (pure functions, no service);
* :class:`SloAnalyzer` on hand-built span fixtures — exact nearest-rank
  percentiles, host-vs-simulated clock separation, per-tenant
  grouping, empty/degenerate inputs;
* :class:`SloPolicy` verdicts — margins, missing metrics, text table;
* one small live run through :class:`LoadGenerator` and the ``repro
  load`` CLI — outcomes bit-identical to ``run_standalone`` and the
  ``--check`` gate exiting nonzero on an intentionally tight bound (the
  acceptance-criteria demonstration).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.exceptions import ReproError
from repro.loadgen import (
    ArrivalSpec,
    LoadGenerator,
    SloAnalyzer,
    SloBound,
    SloPolicy,
    TenantLoad,
    WorkloadSpec,
    arrival_offsets,
    burst_offsets,
    closed_loop_think_times,
    diurnal_offsets,
    dump_workload,
    load_workload,
    poisson_offsets,
)
from repro.obs import percentile, percentiles
from repro.service import RequestSpec, run_standalone

try:
    import yaml  # noqa: F401

    HAVE_YAML = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_YAML = False


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
class TestArrivalSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            ArrivalSpec(kind="lognormal")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "poisson", "requests": 0},
            {"kind": "poisson", "rate_rps": 0.0},
            {"kind": "burst", "bursts": 0},
            {"kind": "burst", "burst_size": 0},
            {"kind": "burst", "spacing_s": -0.1},
            {"kind": "diurnal", "base_rps": 0.0},
            {"kind": "diurnal", "base_rps": 4.0, "peak_rps": 2.0},
            {"kind": "diurnal", "period_s": 0.0},
            {"kind": "closed", "clients": 0},
            {"kind": "closed", "think_s": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ReproError):
            ArrivalSpec(**kwargs)

    def test_total_requests_per_kind(self):
        assert ArrivalSpec(kind="poisson", requests=7).total_requests == 7
        assert (
            ArrivalSpec(
                kind="burst", bursts=3, burst_size=5
            ).total_requests
            == 15
        )
        assert (
            ArrivalSpec(
                kind="closed", clients=3, requests_per_client=4
            ).total_requests
            == 12
        )

    def test_roundtrip_through_flat_dict(self):
        spec = ArrivalSpec(
            kind="burst", bursts=3, burst_size=2, jitter_s=0.5
        )
        clone = ArrivalSpec(**dataclasses.asdict(spec))
        assert clone == spec
        # And through JSON, the on-disk config path.
        assert (
            ArrivalSpec(**json.loads(json.dumps(dataclasses.asdict(spec))))
            == spec
        )


class TestArrivalGenerators:
    @pytest.mark.parametrize(
        "spec",
        [
            ArrivalSpec(kind="poisson", requests=16, rate_rps=8.0),
            ArrivalSpec(
                kind="burst", bursts=2, burst_size=4, jitter_s=0.1
            ),
            ArrivalSpec(kind="diurnal", requests=16),
            ArrivalSpec(kind="closed", clients=2, requests_per_client=3),
        ],
        ids=["poisson", "burst", "diurnal", "closed"],
    )
    def test_seeded_schedules_deterministic(self, spec):
        first = arrival_offsets(spec, seed=42)
        second = arrival_offsets(spec, seed=42)
        assert first == second
        assert len(first) == spec.total_requests
        assert first == sorted(first)
        assert all(offset >= 0.0 for offset in first)
        if spec.kind != "burst" or spec.jitter_s:
            assert arrival_offsets(spec, seed=43) != first

    def test_poisson_mean_rate_statistically_sane(self):
        spec = ArrivalSpec(kind="poisson", requests=4000, rate_rps=50.0)
        offsets = poisson_offsets(spec, seed=3)
        mean_gap = offsets[-1] / len(offsets)
        assert mean_gap == pytest.approx(1.0 / 50.0, rel=0.1)

    def test_burst_train_exact_without_jitter(self):
        spec = ArrivalSpec(
            kind="burst",
            bursts=2,
            burst_size=3,
            spacing_s=0.1,
            gap_s=5.0,
        )
        assert burst_offsets(spec, seed=0) == [
            0.0, 0.1, 0.2, 5.0, 5.1, 5.2,
        ]
        # Seed-independent when jitter is off.
        assert burst_offsets(spec, seed=99) == burst_offsets(spec, seed=0)

    def test_burst_jitter_bounded(self):
        spec = ArrivalSpec(
            kind="burst",
            bursts=2,
            burst_size=3,
            spacing_s=0.1,
            gap_s=5.0,
            jitter_s=0.05,
        )
        exact = burst_offsets(dataclasses.replace(spec, jitter_s=0.0), 0)
        jittered = burst_offsets(spec, seed=1)
        assert len(jittered) == len(exact)
        # Each jittered arrival moved at most jitter_s late (the list is
        # re-sorted, so compare multiset-wise via the sorted baseline).
        assert all(
            0.0 <= j - e <= 0.05 + 1e-12
            for j, e in zip(jittered, exact)
        )

    def test_diurnal_rate_between_base_and_peak(self):
        spec = ArrivalSpec(
            kind="diurnal",
            requests=2000,
            base_rps=5.0,
            peak_rps=50.0,
            period_s=10.0,
        )
        offsets = diurnal_offsets(spec, seed=7)
        assert len(offsets) == 2000
        empirical = len(offsets) / offsets[-1]
        assert 5.0 < empirical < 50.0
        # The long-run average of the sinusoid is the midpoint.
        assert empirical == pytest.approx(27.5, rel=0.15)

    def test_closed_loop_think_times_shape_and_determinism(self):
        spec = ArrivalSpec(
            kind="closed", clients=3, requests_per_client=4, think_s=0.2
        )
        times = closed_loop_think_times(spec, seed=5)
        assert len(times) == 3
        assert all(len(client) == 4 for client in times)
        assert times == closed_loop_think_times(spec, seed=5)
        flat = [value for client in times for value in client]
        assert all(value >= 0.0 for value in flat)
        assert np.mean(flat) == pytest.approx(0.2, rel=0.9)

    def test_closed_loop_zero_think_is_all_zeros(self):
        spec = ArrivalSpec(
            kind="closed", clients=2, requests_per_client=3, think_s=0.0
        )
        assert closed_loop_think_times(spec, seed=1) == [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
        assert arrival_offsets(spec, seed=1) == [0.0] * 6


# ---------------------------------------------------------------------------
# Workload specs
# ---------------------------------------------------------------------------
def _small_workload(**kwargs):
    defaults = dict(
        name="unit",
        seed=9,
        base=RequestSpec(
            program="GHZ_n4", shots=64, probe_shots=16, drift_hours=0.5
        ),
        workers=2,
        tenants=(
            TenantLoad(
                name="alice",
                arrival=ArrivalSpec(
                    kind="burst", bursts=1, burst_size=2, spacing_s=0.0
                ),
                programs=("GHZ_n4", "BV_n4"),
            ),
            TenantLoad(
                name="bob",
                arrival=ArrivalSpec(
                    kind="closed",
                    clients=1,
                    requests_per_client=2,
                    think_s=0.0,
                ),
                programs=("GHZ_n4",),
                overrides=(("shots", 128),),
            ),
        ),
    )
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ReproError):
            _small_workload(tenants=())
        with pytest.raises(ReproError):
            _small_workload(workers=0)
        tenant = _small_workload().tenants[0]
        with pytest.raises(ReproError):
            _small_workload(
                tenants=(tenant, dataclasses.replace(tenant))
            )
        with pytest.raises(ReproError):
            TenantLoad(name="x", overrides=(("not_a_field", 1),))
        with pytest.raises(ReproError):
            TenantLoad(name="x", programs=())

    def test_schedule_deterministic_and_total(self):
        workload = _small_workload()
        first = workload.schedule()
        second = _small_workload().schedule()
        assert first == second
        assert len(first) == workload.total_requests == 4
        offsets = [item.offset_s for item in first]
        assert offsets == sorted(offsets)

    def test_overrides_and_program_cycle_in_schedule(self):
        schedule = _small_workload().schedule()
        alice = [item for item in schedule if item.tenant == "alice"]
        bob = [item for item in schedule if item.tenant == "bob"]
        assert [item.spec.program for item in alice] == [
            "GHZ_n4", "BV_n4",
        ]
        assert all(item.spec.shots == 128 for item in bob)
        assert all(item.client == 0 for item in bob)
        assert all(item.client is None for item in alice)

    def test_random_program_mode_seeded(self):
        tenant = TenantLoad(
            name="mix",
            arrival=ArrivalSpec(kind="poisson", requests=32),
            programs=("GHZ_n4", "BV_n4", "QAOA_n5"),
            program_mode="random",
        )
        base = RequestSpec(program="GHZ_n4")
        picks = [s.program for s in tenant.request_specs(base, seed=4)]
        assert picks == [
            s.program for s in tenant.request_specs(base, seed=4)
        ]
        assert len(set(picks)) > 1
        assert picks != [
            s.program for s in tenant.request_specs(base, seed=5)
        ]

    def test_roundtrip_dict(self):
        workload = _small_workload(
            slo=(SloBound(metric="failed", max_value=0),)
        )
        clone = WorkloadSpec.from_dict(workload.to_dict())
        assert clone == workload
        assert clone.schedule() == workload.schedule()

    def test_roundtrip_json_file(self, tmp_path):
        workload = _small_workload(
            slo=(SloBound(metric="throughput_rps", min_value=0.01),)
        )
        path = tmp_path / "workload.json"
        dump_workload(workload, path)
        assert load_workload(path) == workload

    @pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")
    def test_roundtrip_yaml_file(self, tmp_path):
        workload = _small_workload()
        path = tmp_path / "workload.yaml"
        dump_workload(workload, path)
        assert load_workload(path) == workload

    def test_unknown_top_level_key_rejected(self):
        data = _small_workload().to_dict()
        data["sevrice"] = {"workers": 3}
        with pytest.raises(ReproError, match="top-level key 'sevrice'"):
            WorkloadSpec.from_dict(data)

    @pytest.mark.parametrize("key", ["wokers", "fleet"])
    def test_unknown_service_key_rejected(self, key):
        data = _small_workload().to_dict()
        data["service"][key] = 3
        with pytest.raises(ReproError, match=f"service key '{key}'"):
            WorkloadSpec.from_dict(data)

    @pytest.mark.parametrize("key", ["shotz", "replica"])
    def test_unknown_base_key_rejected(self, key):
        data = _small_workload().to_dict()
        data["base"][key] = 1
        with pytest.raises(ReproError, match=f"base key '{key}'"):
            WorkloadSpec.from_dict(data)

    def test_example_workload_loads(self):
        if not HAVE_YAML:
            pytest.skip("PyYAML not installed")
        workload = load_workload("examples/workload_burst.yaml")
        assert workload.total_requests == 20
        assert len(workload.slo) == 6
        assert workload.schedule() == workload.schedule()


# ---------------------------------------------------------------------------
# Percentiles + analyzer on hand-built fixtures
# ---------------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank_exact_values(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 75) == 30.0
        assert percentile(values, 95) == 40.0
        assert percentile(values, 99) == 40.0
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile([7.0], 99) == 7.0

    def test_empty_and_bad_q(self):
        assert percentile([], 95) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        assert percentiles([1.0, 2.0]) == {
            "p50": 1.0, "p95": 2.0, "p99": 2.0,
        }


def _request_span(
    tenant,
    latency_s,
    device_time_us,
    queue_wait_s=0.1,
    service_time_s=None,
    probes=4,
    dedup_hits=2,
    failed=False,
    end_wall_s=None,
):
    attributes = {
        "tenant": tenant,
        "program": "GHZ_n4",
        "latency_s": latency_s,
        "device_time_us": device_time_us,
        "queue_wait_s": queue_wait_s,
        "service_time_s": (
            service_time_s
            if service_time_s is not None
            else latency_s - queue_wait_s
        ),
        "probes": probes,
        "dedup_hits": dedup_hits,
    }
    if failed:
        attributes["failed"] = True
    return {
        "name": "svc.request",
        "start_wall_s": 0.0,
        "wall_time_s": (
            end_wall_s if end_wall_s is not None else latency_s
        ),
        "attributes": attributes,
    }


class TestSloAnalyzer:
    def test_exact_percentiles_and_clock_separation(self):
        # Host latencies 1..4 s; device times deliberately in a
        # *different* order so a mixed-up clock would show.
        spans = [
            _request_span("t", 1.0, 400.0),
            _request_span("t", 2.0, 300.0),
            _request_span("t", 3.0, 200.0),
            _request_span("t", 4.0, 100.0),
        ]
        report = SloAnalyzer(spans, wall_time_s=8.0).analyze()
        assert report["requests"] == report["completed"] == 4
        assert report["failed"] == 0
        assert report["latency"]["host"]["p50_s"] == 2.0
        assert report["latency"]["host"]["p95_s"] == 4.0
        assert report["latency"]["host"]["p99_s"] == 4.0
        assert report["latency"]["host"]["mean_s"] == 2.5
        assert report["latency"]["host"]["jitter_s"] == pytest.approx(
            np.std([1.0, 2.0, 3.0, 4.0])
        )
        assert report["latency"]["device"]["p50_us"] == 200.0
        assert report["latency"]["device"]["p95_us"] == 400.0
        assert report["throughput_rps"] == pytest.approx(0.5)
        assert report["dedup"]["probes"] == 16
        assert report["dedup"]["hits"] == 8
        assert report["dedup"]["ratio"] == 0.5

    def test_failed_requests_excluded_from_latency(self):
        spans = [
            _request_span("t", 1.0, 100.0),
            _request_span("t", 99.0, 9000.0, failed=True),
        ]
        report = SloAnalyzer(spans, wall_time_s=2.0).analyze()
        assert report["requests"] == 2
        assert report["completed"] == 1
        assert report["failed"] == 1
        assert report["latency"]["host"]["p99_s"] == 1.0
        assert report["throughput_rps"] == pytest.approx(0.5)

    def test_per_tenant_grouping(self):
        spans = [
            _request_span("alice", 1.0, 100.0),
            _request_span("alice", 3.0, 300.0),
            _request_span("bob", 5.0, 500.0),
        ]
        report = SloAnalyzer(spans, wall_time_s=6.0).analyze()
        assert set(report["per_tenant"]) == {"alice", "bob"}
        assert report["per_tenant"]["alice"]["requests"] == 2
        assert (
            report["per_tenant"]["alice"]["latency"]["host"]["p99_s"]
            == 3.0
        )
        assert (
            report["per_tenant"]["bob"]["latency"]["host"]["p50_s"]
            == 5.0
        )

    def test_rejections_and_coalescing(self):
        spans = [
            _request_span("t", 1.0, 100.0),
            {
                "name": "svc.reject",
                "attributes": {"tenant": "t", "retry_after_s": 0.5},
            },
            {
                "name": "svc.coalesce",
                "attributes": {"units": 6, "jobs": 9},
            },
            {
                "name": "svc.coalesce",
                "attributes": {"units": 2, "jobs": 3},
            },
        ]
        report = SloAnalyzer(spans, wall_time_s=1.0).analyze()
        assert report["rejected"] == 1
        assert report["rejection_rate"] == 0.5
        assert report["coalescing"]["rounds"] == 2
        assert report["coalescing"]["units"] == 8
        assert report["coalescing"]["jobs"] == 12
        assert report["coalescing"]["mean_units_per_round"] == 4.0

    def test_empty_input_is_all_zeros(self):
        report = SloAnalyzer([]).analyze()
        assert report["requests"] == 0
        assert report["completed"] == 0
        assert report["latency"]["host"]["p99_s"] == 0.0
        assert report["throughput_rps"] == 0.0
        assert report["rejection_rate"] == 0.0
        assert report["dedup"]["ratio"] == 0.0
        assert report["coalescing"]["mean_units_per_round"] == 0.0

    def test_wall_time_falls_back_to_span_extent(self):
        spans = [
            _request_span("t", 1.0, 100.0, end_wall_s=4.0),
            _request_span("t", 2.0, 200.0, end_wall_s=2.0),
        ]
        report = SloAnalyzer(spans).analyze()
        assert report["wall_time_s"] == 4.0
        assert report["throughput_rps"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Policy + verdicts
# ---------------------------------------------------------------------------
class TestSloPolicy:
    ANALYSIS = {
        "failed": 0,
        "throughput_rps": 2.0,
        "latency": {"host": {"p95_s": 3.0}},
        "per_tenant": {"alice": {"queue_wait": {"p99_s": 0.25}}},
    }

    def test_bound_requires_a_limit(self):
        with pytest.raises(ReproError):
            SloBound(metric="failed")

    def test_margins_and_pass(self):
        policy = SloPolicy(
            bounds=(
                SloBound(metric="latency.host.p95_s", max_value=5.0),
                SloBound(metric="throughput_rps", min_value=1.0),
                SloBound(
                    metric="per_tenant.alice.queue_wait.p99_s",
                    max_value=0.5,
                ),
            )
        )
        verdict = policy.evaluate(self.ANALYSIS)
        assert verdict.passed
        assert not verdict.violations
        margins = [result.margin for result in verdict.results]
        assert margins == [2.0, 1.0, 0.25]

    def test_violation_and_negative_margin(self):
        policy = SloPolicy(
            bounds=(
                SloBound(metric="latency.host.p95_s", max_value=1.0),
                SloBound(metric="throughput_rps", min_value=1.0),
            )
        )
        verdict = policy.evaluate(self.ANALYSIS)
        assert not verdict.passed
        assert len(verdict.violations) == 1
        assert verdict.violations[0].bound.metric == "latency.host.p95_s"
        assert verdict.violations[0].margin == -2.0
        assert "SLO: FAIL (1 violated)" in verdict.to_text()
        assert "VIOLATED" in verdict.to_text()

    def test_missing_metric_fails_not_skips(self):
        policy = SloPolicy(
            bounds=(SloBound(metric="latency.host.p95_ms", max_value=1),)
        )
        verdict = policy.evaluate(self.ANALYSIS)
        assert not verdict.passed
        assert verdict.results[0].value is None
        assert "missing" in verdict.to_text()

    def test_band_bound_uses_tighter_margin(self):
        policy = SloPolicy(
            bounds=(
                SloBound(
                    metric="throughput_rps",
                    min_value=1.5,
                    max_value=10.0,
                ),
            )
        )
        verdict = policy.evaluate(self.ANALYSIS)
        assert verdict.passed
        assert verdict.results[0].margin == 0.5

    def test_verdict_dict_shape(self):
        verdict = SloPolicy(
            bounds=(SloBound(metric="failed", max_value=0),)
        ).evaluate(self.ANALYSIS)
        data = verdict.to_dict()
        assert data["passed"] is True
        assert data["bounds"][0]["metric"] == "failed"
        assert data["bounds"][0]["max"] == 0
        assert data["bounds"][0]["ok"] is True


# ---------------------------------------------------------------------------
# Live runs: generator + CLI gate
# ---------------------------------------------------------------------------
def _live_workload(slo=()):
    return _small_workload(
        slo=tuple(slo),
        base=RequestSpec(
            program="GHZ_n4", shots=32, probe_shots=8, drift_hours=0.5
        ),
    )


class TestLoadGeneratorLive:
    def test_run_bit_identical_to_standalone(self):
        workload = _live_workload(
            slo=(
                SloBound(metric="failed", max_value=0),
                SloBound(metric="latency.host.p99_s", max_value=300.0),
            )
        )
        generator = LoadGenerator(workload)
        report = generator.run()
        assert report.failed == 0
        assert report.rejected == 0
        assert len(report.completed) == workload.total_requests
        references = {}
        for outcome in report.completed:
            if outcome.spec not in references:
                references[outcome.spec] = run_standalone(outcome.spec)
            reference = references[outcome.spec]
            assert outcome.result.sequence == reference.result.sequence
            assert outcome.result.trace == reference.result.trace
            assert outcome.final_counts == reference.final_counts
            assert outcome.device_time_us == reference.device_time_us
        analysis = report.analyze()
        assert analysis["completed"] == workload.total_requests
        assert analysis["latency"]["host"]["p99_s"] > 0.0
        assert analysis["latency"]["device"]["p99_us"] > 0.0
        assert set(analysis["per_tenant"]) == {"alice", "bob"}
        verdict = report.verdict()
        assert verdict.passed, verdict.to_text()

    def test_invalid_pacing_rejected(self):
        generator = LoadGenerator(_live_workload())
        with pytest.raises(ValueError):
            generator.run(pacing="warp")
        with pytest.raises(ValueError):
            generator.run(pacing="wall", speedup=0.0)


class TestCliLoadGate:
    def _write_workload(self, tmp_path, slo):
        workload = WorkloadSpec(
            name="cli-gate",
            seed=3,
            base=RequestSpec(
                program="GHZ_n4",
                shots=32,
                probe_shots=8,
                drift_hours=0.5,
            ),
            workers=1,
            tenants=(
                TenantLoad(
                    name="solo",
                    arrival=ArrivalSpec(
                        kind="burst",
                        bursts=1,
                        burst_size=2,
                        spacing_s=0.0,
                    ),
                ),
            ),
            slo=tuple(slo),
        )
        path = tmp_path / "workload.json"
        dump_workload(workload, path)
        return path

    def test_check_fails_on_intentionally_tight_bound(
        self, tmp_path, capsys
    ):
        # The acceptance-criteria demonstration: a bound no real run can
        # meet (p95 latency under a nanosecond) must exit nonzero.
        path = self._write_workload(
            tmp_path,
            slo=(
                SloBound(metric="latency.host.p95_s", max_value=1e-9),
            ),
        )
        code = cli_main(["load", "--workload", str(path), "--check"])
        captured = capsys.readouterr()
        assert code != 0
        assert "SLO: FAIL" in captured.out
        assert "CHECK FAILED" in captured.err

    def test_unknown_workload_key_is_a_cli_error(self, tmp_path, capsys):
        path = self._write_workload(tmp_path, slo=())
        data = json.loads(path.read_text())
        data["base"]["shotz"] = 64
        path.write_text(json.dumps(data))
        code = cli_main(["load", "--workload", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: workload base key 'shotz'")

    def test_check_passes_with_generous_bounds(self, tmp_path, capsys):
        path = self._write_workload(
            tmp_path,
            slo=(
                SloBound(metric="failed", max_value=0),
                SloBound(metric="latency.host.p95_s", max_value=300.0),
                SloBound(metric="throughput_rps", min_value=1e-4),
            ),
        )
        out = tmp_path / "report.json"
        code = cli_main(
            [
                "load",
                "--workload",
                str(path),
                "--check",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "SLO: PASS" in captured.out
        payload = json.loads(out.read_text())
        assert payload["verdict"]["passed"] is True
        assert payload["analysis"]["completed"] == 2
        assert (
            payload["workload"]["name"] == "cli-gate"
        )
