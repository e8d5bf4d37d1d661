"""Execution-service tests: jobs, backends, executor, ANGEL equivalence."""

import gc
import weakref

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.angel import Angel, AngelConfig, _CopycatNativizer
from repro.core.copycat import build_copycat
from repro.core.policies import noise_adaptive_sequence
from repro.core.search import localized_search
from repro.core.sequence import NativeGateSequence, enumerate_sequences
from repro.device import CalibrationService, small_test_device
from repro.exceptions import ExecutionError
from repro.exec import (
    BatchExecutor,
    Job,
    JobResult,
    LocalBackend,
    get_executor,
)
from repro.experiments import ExperimentContext
from repro.metrics import success_rate_from_counts
from repro.programs.ghz import ghz
from repro.service import RequestSpec, run_standalone


def _env(seed=31, cal_seed=2):
    device = small_test_device(5, seed=seed)
    service = CalibrationService(device, seed=cal_seed)
    service.full_calibration()
    return device, service.data


def _native_ghz(device, n=4):
    compiled = transpile(ghz(n), device)
    sequence = NativeGateSequence.uniform(compiled.sites, "cz")
    return nativize(
        compiled.scheduled, sequence.as_site_map(), device.native_gates
    )


class TestJob:
    def test_rejects_nonpositive_shots(self):
        device, _ = _env()
        circuit = _native_ghz(device)
        with pytest.raises(ExecutionError):
            Job(circuit, 0)

    def test_with_id(self):
        device, _ = _env()
        job = Job(_native_ghz(device), 10, tag="probe")
        stamped = job.with_id("probe-00001")
        assert stamped.job_id == "probe-00001"
        assert job.job_id == ""  # original untouched (frozen)

    def test_result_distribution(self):
        result = JobResult("j", {"00": 3, "11": 1}, shots=4)
        assert result.distribution() == {"00": 0.75, "11": 0.25}
        empty = JobResult("j", {}, shots=0)
        with pytest.raises(ExecutionError):
            empty.distribution()


class TestLocalBackend:
    def test_submit_matches_direct_device_run(self):
        device_a, _ = _env()
        device_b, _ = _env()
        circuit = _native_ghz(device_a)
        backend = LocalBackend(device_a)
        result = backend.submit(Job(circuit, 300, seed=7, tag="t"))
        counts = device_b.run(_native_ghz(device_b), 300, seed=7)
        assert result.counts == counts
        assert result.shots == 300
        assert device_a.clock_us == device_b.clock_us
        assert result.duration_us > 0

    def test_execution_record_metadata(self):
        device, _ = _env()
        backend = LocalBackend(device)
        backend.submit(Job(_native_ghz(device), 50, seed=3, tag="probe",
                           job_id="probe-00042"))
        record = device.execution_log[-1]
        assert record.seed == 3
        assert record.tag == "probe"
        assert record.job_id == "probe-00042"


class TestBatchExecutor:
    def test_assigns_job_ids_and_stats(self):
        device, _ = _env()
        executor = BatchExecutor(LocalBackend(device))
        circuit = _native_ghz(device)
        first = executor.submit(Job(circuit, 64, tag="probe"))
        batch = executor.submit_batch(
            [Job(circuit, 32, tag="final"), Job(circuit, 32, tag="final")]
        )
        assert first.job_id == "probe-00001"
        assert [r.job_id for r in batch] == ["final-00002", "final-00003"]
        stats = executor.stats
        assert stats.jobs == 3
        assert stats.batches == 1
        assert stats.shots == 128
        assert stats.jobs_by_tag == {"probe": 1, "final": 2}
        assert stats.shots_by_tag == {"probe": 64, "final": 64}
        assert stats.device_time_us > 0
        assert stats.cache_hits + stats.cache_misses > 0
        snapshot = stats.snapshot()
        assert snapshot["jobs"] == 3
        assert "probe" in stats.to_text()

    def test_get_executor_is_per_device_singleton(self):
        device_a, _ = _env()
        device_b, _ = _env(seed=32)
        assert get_executor(device_a) is get_executor(device_a)
        assert get_executor(device_a) is not get_executor(device_b)


class TestDeviceLifetime:
    """The shared executor must not keep finished requests' devices
    (and their channel and simulation caches) alive."""

    def test_closed_context_device_is_collected(self):
        context = ExperimentContext.create(drift_hours=0.0)
        qubit = context.device.topology.qubits[0]
        circuit = QuantumCircuit(qubit + 1).rx(np.pi, qubit).measure(qubit)
        context.executor.submit(Job(circuit, 16, seed=0))
        assert context.executor is get_executor(context.device)
        device = weakref.ref(context.device)
        context.close()
        del context
        gc.collect()
        assert device() is None

    def test_run_standalone_device_is_collected(self, monkeypatch):
        devices = []
        create = ExperimentContext.create.__func__

        def recording_create(cls, *args, **kwargs):
            context = create(cls, *args, **kwargs)
            devices.append(weakref.ref(context.device))
            return context

        monkeypatch.setattr(
            ExperimentContext, "create", classmethod(recording_create)
        )
        outcome = run_standalone(
            RequestSpec("tele_n2", shots=64, probe_shots=16, drift_hours=0.0)
        )
        assert outcome.probes_run > 0
        assert len(devices) == 1
        gc.collect()
        assert devices[0]() is None


class TestCopycatNativizer:
    def test_matches_reference_nativize(self):
        device, calibration = _env()
        compiled = transpile(ghz(5), device, calibration)
        copycat = build_copycat(compiled.scheduled)
        nativizer = _CopycatNativizer(copycat, device.native_gates)
        assert nativizer.num_sites == compiled.num_cnot_sites
        for number, sequence in enumerate(
            enumerate_sequences(
                compiled.sites, compiled.gate_options(), "link"
            )
        ):
            fast = nativizer.nativize(sequence, number)
            reference = nativize(
                copycat.circuit,
                sequence.as_site_map(),
                native_gates=device.native_gates,
                name_suffix=f"_probe{number}",
            )
            assert fast.name == reference.name
            assert list(fast) == list(reference)


class TestAngelEquivalence:
    def test_ghz5_sequential_matches_direct_device_loop(self):
        """The executor seam is bit-transparent for the paper's algorithm.

        An ANGEL run through the BatchExecutor (sequential mode) must
        reproduce the historical direct-``device.run`` probing loop
        exactly: same probe success rates, same learned sequence, same
        clock advancement, same number of CopyCats executed.
        """
        config = AngelConfig(probe_shots=400, seed=11)

        device_new, cal_new = _env()
        angel = Angel(device_new, cal_new, config)
        compiled_new, result = angel.compile_and_select(ghz(5))

        device_old, cal_old = _env()
        rng = np.random.default_rng(config.seed)
        compiled_old = transpile(ghz(5), device_old, cal_old)
        copycat = build_copycat(
            compiled_old.scheduled,
            max_non_clifford=config.max_non_clifford,
            exclude_hadamard_like=config.exclude_hadamard_like,
        )
        ideal = copycat.ideal_distribution()
        options = compiled_old.gate_options()
        reference = noise_adaptive_sequence(
            compiled_old.sites, cal_old, options
        )
        probes_run = 0

        def probe(sequence):
            nonlocal probes_run
            circuit = nativize(
                copycat.circuit,
                sequence.as_site_map(),
                native_gates=device_old.native_gates,
                name_suffix=f"_probe{probes_run}",
            )
            counts = device_old.run(
                circuit,
                config.probe_shots,
                seed=int(rng.integers(2**31)),
            )
            probes_run += 1
            return success_rate_from_counts(ideal, counts)

        best, trace = localized_search(
            probe, reference, options, max_passes=1
        )

        assert result.copycats_executed == probes_run
        assert result.sequence.gates == best.gates
        assert [p.success_rate for p in result.trace.probes] == [
            p.success_rate for p in trace.probes
        ]
        assert device_new.clock_us == device_old.clock_us
        assert [r.circuit_name for r in device_new.execution_log] == [
            r.circuit_name for r in device_old.execution_log
        ]
        # The new path's extra accounting: probe tags and job ids.
        assert all(
            r.tag == "probe" and r.job_id
            for r in device_new.execution_log
        )
        stats = angel.executor.stats
        assert stats.jobs_by_tag["probe"] == probes_run
        assert stats.shots == probes_run * config.probe_shots
