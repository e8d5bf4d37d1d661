"""Observability subsystem tests: tracer, metrics registry, wiring.

The contract: a single instrumented probe sweep emits one coherent span
tree (``angel.select`` > ``search`` > ``search.pass`` > ``search.link``
> ``exec.batch`` > ``backend.job``) covering every probe job, the
registry absorbs the executor/cache ledgers without ever running a
counter backwards, and — crucially — installing *no* tracer leaves the
execution stack bit-identical to the uninstrumented seed behaviour.
"""

import io
import json

import pytest

from repro.compiler import transpile
from repro.core import Angel, AngelConfig
from repro.device import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.experiments import ExperimentContext
from repro.obs import (
    JsonlSpanSink,
    MetricsRegistry,
    NULL_SPAN,
    Tracer,
    active_registry,
    active_tracer,
    observed,
    read_trace,
    render_trace,
)
from repro.obs import runtime as obs_runtime
from repro.programs.ghz import ghz


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        # Children finish before parents.
        names = [s.name for s in tracer.spans]
        assert names == ["inner", "middle", "outer"]

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_span_times_are_monotonic(self):
        tracer = Tracer()
        with tracer.span("timed"):
            pass
        span = tracer.spans[0]
        assert span.end_wall_s >= span.start_wall_s
        assert span.wall_time_s >= 0.0

    def test_device_clock_sampled_per_span(self):
        clock = [100.0]
        tracer = Tracer(clock_us=lambda: clock[0])
        with tracer.span("job"):
            clock[0] = 350.0
        span = tracer.spans[0]
        assert span.start_device_us == 100.0
        assert span.end_device_us == 350.0
        assert span.device_time_us == 250.0

    def test_attributes_and_events(self):
        tracer = Tracer()
        with tracer.span("work", shots=1024) as span:
            span.set(extra=7)
            span.event("retry", attempt=1)
        finished = tracer.spans[0]
        assert finished.attributes == {"shots": 1024, "extra": 7}
        assert [e.name for e in finished.events] == ["retry"]
        assert finished.events[0].attributes == {"attempt": 1}

    def test_tracer_event_targets_innermost_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("fault", kind="timeout")
        assert not outer.events
        assert [e.name for e in inner.events] == ["fault"]

    def test_event_without_open_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")
        assert tracer.spans == []

    def test_exception_marks_span_error_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        statuses = {s.name: s.status for s in tracer.spans}
        assert statuses == {"inner": "error", "outer": "error"}
        assert tracer.current is None

    def test_jsonl_sink_streams_parseable_lines(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=JsonlSpanSink(buffer))
        with tracer.span("root", tag="probe"):
            with tracer.span("leaf"):
                pass
        tracer.flush()
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert [d["name"] for d in lines] == ["leaf", "root"]
        assert lines[1]["attributes"] == {"tag": "probe"}
        assert lines[0]["parent_id"] == lines[1]["span_id"]

    def test_sink_coerces_non_json_attributes(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=JsonlSpanSink(buffer))
        with tracer.span("link", link=(21, 22)):
            pass
        line = json.loads(buffer.getvalue())
        assert line["attributes"]["link"] == [21, 22]

    def test_keep_spans_false_only_streams(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=JsonlSpanSink(buffer), keep_spans=False)
        with tracer.span("root"):
            pass
        assert tracer.spans == []
        assert json.loads(buffer.getvalue())["name"] == "root"

    def test_registry_fed_per_finished_span(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        for _ in range(3):
            with tracer.span("backend.job"):
                pass
        snap = registry.snapshot()
        assert snap["counters"]["span.backend.job"] == 3
        assert snap["histograms"]["span.backend.job.wall_s"]["count"] == 3


# ----------------------------------------------------------------------
# Null path / runtime installation
# ----------------------------------------------------------------------
class TestRuntime:
    def test_disabled_by_default(self):
        assert active_tracer() is None
        assert active_registry() is None

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.set(anything=1)
            span.event("whatever")
        assert not NULL_SPAN
        assert NULL_SPAN.set(x=1) is NULL_SPAN

    def test_observed_installs_and_restores(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        with observed(tracer, registry):
            assert active_tracer() is tracer
            assert active_registry() is registry
            inner = Tracer()
            with observed(inner):
                assert active_tracer() is inner
            assert active_tracer() is tracer
        assert active_tracer() is None
        assert active_registry() is None

    def test_module_event_routes_to_active_tracer(self):
        tracer = Tracer()
        with observed(tracer):
            with tracer.span("root") as root:
                obs_runtime.event("remote.fast_fail", pending=2)
        assert [e.name for e in root.events] == ["remote.fast_fail"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_never_goes_backwards(self):
        registry = MetricsRegistry()
        counter = registry.counter("exec.jobs")
        counter.advance_to(10)
        counter.advance_to(7)  # stale snapshot: no-op
        assert counter.value == 10
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_ingest_flattens_and_classifies(self):
        registry = MetricsRegistry()
        registry.ingest(
            "exec",
            {
                "jobs": 5,
                "entries": 4,  # gauge key
                "jobs_by_tag": {"probe": 3, "final": 2},
                "name": "local",  # non-numeric: skipped
                "flag": True,  # bool: skipped
            },
        )
        snap = registry.snapshot()
        assert snap["counters"]["exec.jobs"] == 5
        assert snap["counters"]["exec.jobs_by_tag.probe"] == 3
        assert snap["gauges"]["exec.entries"] == 4
        assert "exec.name" not in snap["counters"]
        assert "exec.flag" not in snap["counters"]

    def test_reingesting_same_ledger_is_idempotent(self):
        registry = MetricsRegistry()
        ledger = {"jobs": 9, "shots": 9216}
        registry.ingest("exec", ledger)
        registry.ingest("exec", ledger)
        snap = registry.snapshot()
        assert snap["counters"]["exec.jobs"] == 9
        assert snap["counters"]["exec.shots"] == 9216

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (0.001, 0.01, 0.1):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.1)
        assert snap["mean"] == pytest.approx(0.037, rel=1e-2)

    def test_to_text_and_jsonl_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("exec.jobs").add(3)
        registry.gauge("cache.entries").set(2)
        registry.histogram("span.job.wall_s").observe(0.5)
        text = registry.to_text()
        assert "exec.jobs" in text
        assert "cache.entries" in text
        buffer = io.StringIO()
        registry.dump_jsonl(buffer)
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        kinds = {d["type"] for d in lines}
        assert kinds == {"counter", "gauge", "histogram"}


class TestPerJobHistogram:
    def test_exec_batch_wall_time_amortized_per_job(self):
        """A batch of N jobs lands N per-job observations in the
        exec.batch wall-time histogram, not one batch-sized observation,
        so percentiles compare batches of different sizes."""
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("exec.batch", jobs=8, units=8):
            pass
        histogram = registry.histogram("span.exec.batch.wall_s")
        assert histogram.count == 8
        span = tracer.spans[-1]
        assert histogram.total == pytest.approx(span.wall_time_s)

    def test_span_without_units_observes_once(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("backend.job"):
            pass
        assert registry.histogram("span.backend.job.wall_s").count == 1

    def test_observe_many_matches_repeated_observe(self):
        from repro.obs.metrics import Histogram

        left = Histogram("left")
        right = Histogram("right")
        left.observe_many(0.25, 5)
        for _ in range(5):
            right.observe(0.25)
        assert left.snapshot() == right.snapshot()
        left.observe_many(1.0, 0)  # no-op
        assert left.count == 5


# ----------------------------------------------------------------------
# Execution-stack integration
# ----------------------------------------------------------------------
def _run_select(device_seed=7, tracer=None, registry=None):
    """One ANGEL selection on the small test device; returns the result."""
    device = small_test_device(seed=device_seed)
    from repro.device.calibration import CalibrationService

    service = CalibrationService(device, seed=3)
    service.full_calibration()
    compiled = transpile(ghz(3), device, service.data)
    angel = Angel(
        device, service.data, AngelConfig(probe_shots=256, seed=5)
    )
    if tracer is None and registry is None:
        return angel.select(compiled)
    with observed(tracer, registry):
        return angel.select(compiled)


class TestIntegration:
    def test_traced_sweep_emits_coherent_tree(self):
        tracer = Tracer()
        result = _run_select(tracer=tracer)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        # One probe span per executed CopyCat.
        jobs = by_name["backend.job"]
        assert len(jobs) == result.copycats_executed
        for job in jobs:
            assert job.attributes["shots"] == 256
            assert "cache_hits_delta" in job.attributes
        # Every backend.job nests under an exec.batch which nests under
        # the search tree, up to a single angel.select root.
        ids = {s.span_id: s for s in tracer.spans}
        for job in jobs:
            chain = []
            node = job
            while node.parent_id is not None:
                node = ids[node.parent_id]
                chain.append(node.name)
            assert chain[0] == "exec.batch"
            assert chain[-1] == "angel.select"
        assert len(by_name["angel.select"]) == 1
        assert len(by_name["search"]) == 1

    def test_tracing_does_not_change_results(self):
        untraced = _run_select()
        traced = _run_select(tracer=Tracer(), registry=MetricsRegistry())
        assert traced.sequence.label() == untraced.sequence.label()
        assert traced.copycats_executed == untraced.copycats_executed
        probes_a = [p.success_rate for p in untraced.trace.probes]
        probes_b = [p.success_rate for p in traced.trace.probes]
        assert probes_a == probes_b

    def test_registry_absorbs_executor_ledger(self):
        registry = MetricsRegistry()
        result = _run_select(registry=registry)
        snap = registry.snapshot()["counters"]
        assert snap["exec.jobs"] == result.copycats_executed
        assert snap["angel.probes"] == result.copycats_executed
        assert snap["angel.selections"] == 1

    def test_executor_batch_span_carries_cache_deltas(self):
        device = small_test_device(seed=3)
        executor = BatchExecutor(LocalBackend(device))
        tracer = Tracer()
        from repro.compiler.nativization import nativize
        from repro.core.sequence import NativeGateSequence

        compiled = transpile(ghz(3), device)
        sequence = NativeGateSequence.uniform(compiled.sites, "cz")
        circuit = nativize(
            compiled.scheduled,
            sequence.as_site_map(),
            device.native_gates,
        )
        with observed(tracer):
            executor.submit_batch(
                [Job(circuit, 64, seed=1), Job(circuit, 64, seed=2)]
            )
        batch = [s for s in tracer.spans if s.name == "exec.batch"]
        assert len(batch) == 1
        attrs = batch[0].attributes
        assert attrs["jobs"] == 2
        assert attrs["shots"] == 128
        assert "cache_hits_delta" in attrs
        assert "device_time_job_us" in attrs

    def test_transpile_emits_one_span_enclosing_opt_run(self):
        device = small_test_device(seed=3)
        tracer = Tracer()
        with observed(tracer):
            compiled = transpile(ghz(4), device, optimization_level=1)
        (span,) = [s for s in tracer.spans if s.name == "compiler.transpile"]
        assert span.parent_id is None
        attrs = span.attributes
        assert attrs["program"] == compiled.source.name
        assert attrs["level"] == 1
        assert attrs["cnot_sites"] == compiled.num_cnot_sites
        assert attrs["links_used"] == len(compiled.links_used())
        assert attrs["swaps"] == compiled.routed.swap_count
        (opt_run,) = [s for s in tracer.spans if s.name == "opt.run"]
        assert opt_run.parent_id == span.span_id


# ----------------------------------------------------------------------
# Context / CLI plumbing
# ----------------------------------------------------------------------
class TestContextPlumbing:
    def test_context_trace_and_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        context = ExperimentContext.create(
            drift_hours=0.0, trace=str(path), metrics=True
        )
        try:
            assert active_tracer() is context.tracer
            assert active_registry() is context.metrics_registry
            compiled = transpile(
                ghz(4), context.device, context.calibration
            )
            angel = Angel(
                context.device,
                context.calibration,
                AngelConfig(probe_shots=128, seed=1),
                executor=context.executor,
            )
            result = angel.select(compiled)
        finally:
            context.close()
        assert active_tracer() is None
        spans = read_trace(str(path))
        probe_spans = [
            s
            for s in spans
            if s["name"] == "backend.job"
            and s["attributes"].get("tag") == "probe"
        ]
        assert len(probe_spans) == result.copycats_executed
        counters = context.metrics_registry.snapshot()["counters"]
        assert counters["exec.jobs"] >= result.copycats_executed
        rendered = render_trace(spans)
        assert "angel.select" in rendered
        assert "backend.job" in rendered

    def test_context_create_nests_calibration_spans(self):
        tracer = Tracer()
        with observed(tracer):
            context = ExperimentContext.create(drift_hours=6.0)
        context.close()
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (create,) = by_name["context.create"]
        assert create.parent_id is None
        assert create.attributes == {"device": "aspen-11", "drift_hours": 6.0}
        (full,) = by_name["calibration.full"]
        assert full.parent_id == create.span_id
        # 6 h in 3 h steps: nothing is due at 3 h; XY and CZ (4 h
        # cadence) are at 6 h, CPHASE (24 h) is not.
        refreshes = by_name["calibration.refresh"]
        assert [s.parent_id for s in refreshes] == [create.span_id] * 2
        assert [s.attributes["gates"] for s in refreshes] == [0, 2]

    def test_cli_angel_alias_with_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        code = main(
            [
                "angel",
                "GHZ_n5",
                "--drift-hours",
                "0",
                "--probe-shots",
                "128",
                "--shots",
                "256",
                "--trace",
                str(path),
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate" in out
        assert "--- metrics ---" in out
        spans = read_trace(str(path))
        probe_spans = [
            s
            for s in spans
            if s["name"] == "backend.job"
            and s["attributes"].get("tag") == "probe"
        ]
        # GHZ-5 uses 4 links with all three natives: 1 + 2L = 9 probes.
        assert len(probe_spans) == 9
        for span in probe_spans:
            assert span["attributes"]["shots"] == 128
            assert span["wall_time_s"] >= 0.0
            assert "cache_hits_delta" in span["attributes"]
