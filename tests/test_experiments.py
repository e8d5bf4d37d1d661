"""Integration tests: every registered experiment runs and reproduces
its qualitative claim at reduced budget."""

import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from repro.core import Angel
from repro.core.sequence import NativeGateSequence
from repro.exceptions import ExecutionError, ReproError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    run_experiment,
)
from repro.programs import get_benchmark, ghz_n4

QUICK = dict(seed=23, drift_hours=12.0)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext.create(**QUICK)


class TestContext:
    def test_staleness_protocol(self):
        ctx = ExperimentContext.create(seed=5, drift_hours=6.0)
        # 6h: xy/cz refreshed at least once (4h cadence), cphase not.
        assert ctx.service.staleness_us("cphase") > 5 * 3_600e6
        assert ctx.service.staleness_us("cz") < 4 * 3_600e6

    @pytest.mark.parametrize("backend", ["local", "remote"])
    def test_closed_context_is_freed_without_the_collector(self, backend):
        """``close`` releases the executor bound to the device (whose
        backend holds the device), so dropping a closed context frees
        its device by reference counting."""
        gc.collect()
        gc.disable()
        try:
            ctx = ExperimentContext.create(drift_hours=0.0, backend=backend)
            assert ctx.executor is ctx.device.shared_executor
            compiled = ctx.transpile(ghz_n4())
            circuit = compiled.nativized(
                NativeGateSequence.uniform(compiled.sites, "cz")
            )
            ctx.measured_success_rate(
                circuit, compiled.ideal_distribution(), 16
            )
            del compiled, circuit
            device = weakref.ref(ctx.device)
            ctx.close()
            assert ctx.device.shared_executor is None
            del ctx
            assert device() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend", ["local", "remote"])
    def test_closed_context_refuses_late_reads(self, backend):
        """After ``close`` the executor and the ledgers raise, rather
        than attach a fresh local executor to the device; ``close``
        itself read the ledgers before it marked the context closed."""
        ctx = ExperimentContext.create(
            drift_hours=0.0, backend=backend, metrics=True
        )
        compiled = ctx.transpile(ghz_n4())
        circuit = compiled.nativized(
            NativeGateSequence.uniform(compiled.sites, "cz")
        )
        ctx.measured_success_rate(circuit, compiled.ideal_distribution(), 16)
        prefixes = set(ctx.ledgers())
        ctx.close()
        for late_read in (lambda: ctx.executor, ctx.ledgers):
            with pytest.raises(ExecutionError, match="closed context"):
                late_read()
            assert ctx.device.shared_executor is None
        ctx.close()  # idempotent
        counters = ctx.metrics_registry.snapshot()["counters"]
        assert counters["exec.jobs"] == 1
        assert {name.split(".")[0] for name in counters} == prefixes
        assert prefixes == (
            {"exec", "cache", "remote", "service"}
            if backend == "remote"
            else {"exec", "cache"}
        )

    def test_unknown_device(self):
        with pytest.raises(ReproError):
            ExperimentContext.create(device_name="sycamore")

    def test_pick_link_full_support(self, context):
        link = context.pick_link()
        assert len(context.device.supported_gates(*link)) == 3

    def test_exact_vs_measured_consistent(self, context):
        from repro.experiments.characterization import micro_benchmark_circuit

        link = context.pick_link()
        circuit = micro_benchmark_circuit(link, "cz", math.pi, "y")
        ideal = {"11": 1.0}
        exact = context.exact_success_rate(circuit, ideal)
        measured = context.measured_success_rate(circuit, ideal, 4096)
        assert measured == pytest.approx(exact, abs=0.05)


class TestRegistry:
    def test_all_artifacts_registered(self):
        expected = {
            "fig1c", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig12", "fig17", "fig18", "fig19", "fig20", "fig21",
            "fig22", "table1", "table2",
            "ablation_budget", "ablation_shots", "ablation_order",
            "extension_cdr", "extension_passes", "fig18_multi",
            "fleet_transfer",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            run_experiment("fig99")

    @pytest.mark.parametrize(
        "argv", [["--stats", "no_such_id"], ["fig1c", "no_such_id"]]
    )
    def test_runner_rejects_unknown_id_before_building(
        self, argv, monkeypatch, capsys
    ):
        _refuse_to_build(monkeypatch)
        assert _experiments_exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'no_such_id'" in captured.err
        assert all(repr(name) in captured.err for name in EXPERIMENTS)

    def test_runner_treats_stray_flags_as_unknown_ids(
        self, monkeypatch, capsys
    ):
        _refuse_to_build(monkeypatch)
        assert _experiments_exit_code(["--tenants", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: '2'" in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--opt-level", "x", "fig1c"], "--opt-level"),
            (["--opt-level=1.5", "fig1c"], "--opt-level"),
            (["--fault-seed", "x", "fig1c"], "--fault-seed"),
            (["fig1c", "--fault-seed=", "--stats"], "--fault-seed"),
        ],
    )
    def test_runner_rejects_non_integer_flags_before_building(
        self, argv, flag, monkeypatch, capsys
    ):
        _refuse_to_build(monkeypatch)
        assert _experiments_exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: invalid int value" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend", "bogus", "table2"],
            ["--fault-profile", "bogus", "table2"],
            ["--opt-level", "7", "table2"],
            ["table2", "--trace"],
            ["--device", "aspen-m-1", "table2"],
        ],
    )
    def test_experiments_reject_bad_settings_before_building(
        self, argv, monkeypatch, capsys
    ):
        _refuse_to_build(monkeypatch)
        assert _experiments_exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: repro experiments")

    def test_runner_module_runs_without_runtime_warning(self):
        # The experiments command starts cleanly under ``-W error``.
        source = str(Path(repro.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro",
                "experiments",
                "table2",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env={
                **os.environ,
                "PYTHONPATH": source + (os.pathsep + path if path else ""),
            },
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("== table2:")


def _refuse_to_build(monkeypatch) -> None:
    """Fail the test if a context is built or an experiment runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("context built for an invalid command")

    monkeypatch.setattr(ExperimentContext, "create", refuse)
    monkeypatch.setitem(EXPERIMENTS, "fig1c", refuse)


def _experiments_exit_code(argv) -> int:
    """``repro experiments ARGV``'s exit code (argparse exits on a
    usage error)."""
    from repro import cli

    try:
        return cli.main(["experiments", *argv])
    except SystemExit as exit_:
        return exit_.code


class TestMotivation:
    def test_fig1c(self, context):
        result = run_experiment("fig1c", context=context, shots=512)
        assert len(result.rows) == 3
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0

    def test_fig1c_claim_on_exact_success_rates(self):
        """Fig. 1(c) on the default context, free of shot noise:
        calibration picks XY, CZ has the highest SR, and CPHASE's SR
        collapses although its calibrated fidelity is above 0.9."""
        from repro.experiments.motivation import _rx_pi_cnot_circuit

        ctx = ExperimentContext.create()
        link = ctx.pick_link()
        srs = {
            native: ctx.exact_success_rate(
                _rx_pi_cnot_circuit(link, native), {"11": 1.0}
            )
            for native in ctx.device.supported_gates(*link)
        }
        assert ctx.calibration.best_native_gate(link) == "xy"
        assert max(srs, key=srs.get) == "cz"
        assert srs["cphase"] < 0.6
        assert ctx.calibration.two_qubit_fidelity(link, "cphase") > 0.9

    def test_fig3(self, context):
        result = run_experiment("fig3", context=context, shots=256)
        values = result.series["success_rates_in_enumeration_order"]
        assert len(values) == 81
        ratio = dict((r[0], r[1]) for r in result.rows)["best / noise-adaptive"]
        assert ratio >= 1.0

    def test_fig9(self, context):
        result = run_experiment("fig9", context=context, shots=256)
        assert len(result.series["ghz_srs"]) == len(result.series["vqe_srs"])


class TestCharacterization:
    def test_fig5(self, context):
        result = run_experiment("fig5", context=context, shots=512)
        assert len(result.rows) == 5  # the theta grid
        for gate_series in result.series.values():
            assert len(gate_series) == 5

    def test_fig6_quick(self, context):
        result = run_experiment("fig6", context=context, max_links=6)
        stats = dict((r[0], r[1]) for r in result.rows)
        assert stats["links characterized"] == 6
        assert stats["circuits run"] > 0

    def test_fig7(self, context):
        result = run_experiment(
            "fig7", context=context, shots=512, cycle_gap_hours=24.0
        )
        assert len(result.rows) == 5


class TestDrift:
    def test_fig8_plateaus(self):
        ctx = ExperimentContext.create(seed=9, drift_hours=0.0)
        result = run_experiment("fig8", context=ctx, hours=12.0)
        # Reported error must plateau between refreshes for cphase
        # (24h cadence, never refreshed in 12h).
        by_gate = {row[0]: row for row in result.rows}
        cphase = by_gate.get("CPHASE")
        if cphase is not None:
            assert cphase[2] == cphase[3]  # all steps are plateau steps
        # True error must actually move.
        for name, series in result.series.items():
            if name.startswith("true_"):
                assert max(series) - min(series) > 0

    def test_fig21(self, context):
        result = run_experiment(
            "fig21", context=context, iterations=3, shots=256, probe_shots=256
        )
        assert len(result.rows) == 3
        assert len(result.series["runtime_best"]) == 3

    def test_fig22(self, context):
        result = run_experiment(
            "fig22", context=context, iterations=3, shots=256
        )
        assert sum(row[1] for row in result.rows) == 3


class TestCopycatQuality:
    def test_fig12_replacement_ordering(self, context):
        result = run_experiment("fig12", context=context, exact=True)
        sccs = {row[0]: row[1] for row in result.rows}
        # The nearest-Clifford CopyCat must imitate at least as well as
        # the deliberately-bad X replacement.
        assert sccs["nearest-Clifford CopyCat"] > sccs["X CopyCat"]

    def test_fig19_positive_correlation(self, context):
        result = run_experiment("fig19", context=context, exact=True)
        scc = dict((r[0], r[1]) for r in result.rows)["Spearman correlation"]
        assert scc > 0.5


class TestMainEval:
    def test_fig18_quick(self, context):
        result = run_experiment(
            "fig18",
            context=context,
            benchmarks=("GHZ_n4", "tele_n2"),
            final_shots=512,
            probe_shots=256,
            runtime_best_shots=128,
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row[1] > 0  # baseline SR
            assert row[6] >= 3  # copycats executed

    def test_fig18_compiles_at_the_context_opt_level(self):
        """``--opt-level`` reaches the experiments: Fig. 18 probes the
        level-2 compile of W-state, 5 CopyCats where level 0 needs 8."""
        ctx = ExperimentContext.create(optimization_level=2)
        compiled = ctx.transpile(get_benchmark("wstate_n4").build())
        expected = Angel(ctx.device, ctx.calibration).expected_probe_count(
            compiled
        )
        result = run_experiment(
            "fig18",
            context=ctx,
            benchmarks=["wstate_n4"],
            final_shots=64,
            probe_shots=16,
            include_runtime_best=False,
        )
        assert result.rows[0][6] == expected == 5

    def test_fig18_multi_quick(self):
        result = run_experiment(
            "fig18_multi",
            seeds=(5,),
            benchmarks=("tele_n2",),
            drift_hours=3.0,
            final_shots=256,
            probe_shots=128,
            runtime_best_shots=64,
        )
        assert result.rows[-1][0] == "pooled"
        assert len(result.rows) == 2

    def test_table1(self, context):
        result = run_experiment("table1", context=context)
        by_name = {row[0]: row for row in result.rows}
        assert by_name["toff_n3"][4] == 9  # routed sites (paper VI-B)
        assert by_name["GHZ_n4"][4] == 3

    def test_table2(self, context):
        result = run_experiment("table2", context=context)
        by_name = {row[0]: row for row in result.rows}
        assert by_name["toff_n3"][3] == "19.7K"
        # ANGEL = 1 + sum(|options|-1) = 1+2L with full support.
        for row in result.rows:
            assert row[5] <= 1 + 2 * row[2]


class TestAblation:
    def test_fig20(self, context):
        result = run_experiment(
            "fig20",
            context=context,
            benchmarks=("GHZ_n4",),
            trials=1,
            probe_shots=256,
            final_shots=512,
        )
        assert len(result.rows) == 1

    def test_ablation_budget(self, context):
        result = run_experiment(
            "ablation_budget", context=context, budgets=(0, 4)
        )
        assert len(result.rows) == 2
        for budget, retained, scc, entropy in result.rows:
            assert retained <= budget
            assert -1.0 <= scc <= 1.0
            assert entropy >= 0.0

    def test_ablation_shots(self, context):
        result = run_experiment(
            "ablation_shots",
            context=context,
            shot_budgets=(64, 512),
            final_shots=512,
        )
        assert len(result.rows) == 2

    def test_ablation_order(self, context):
        result = run_experiment(
            "ablation_order",
            context=context,
            benchmarks=("GHZ_n4",),
            trials=1,
            probe_shots=256,
            final_shots=512,
        )
        assert len(result.rows) == 1


class TestExtensions:
    def test_extension_cdr_quick(self, context):
        result = run_experiment(
            "extension_cdr",
            context=context,
            benchmark="tele_n2",
            num_training=4,
            training_shots=128,
            target_shots=256,
            probe_shots=128,
        )
        assert len(result.rows) == 2
        labels = {row[0] for row in result.rows}
        assert labels == {"baseline", "ANGEL"}

    def test_extension_passes_quick(self, context):
        result = run_experiment(
            "extension_passes",
            context=context,
            benchmarks=("GHZ_n4",),
            passes=(1, 2),
            probe_shots=128,
            final_shots=256,
        )
        assert len(result.rows) == 2
        one_pass, two_pass = result.rows
        assert two_pass[2] >= one_pass[2]  # probes grow with passes


class TestFleetTransfer:
    def test_quick_transfer_study(self):
        result = run_experiment(
            "fleet_transfer",
            replicas=2,
            probe_shots=16,
            stagger_hours=6.0,
        )
        assert len(result.rows) == 2
        replica0, replica1 = result.rows
        # Replica 0 is the compile replica: its own winner trivially
        # survives at zero divergence and zero transfer cost.
        assert replica0[0] == "replica-0"
        assert replica0[2] == pytest.approx(0.0)  # divergence
        assert replica0[3] == "yes"
        assert replica0[7] == pytest.approx(0.0)  # delta
        # Replica 1 drifted independently: divergence is strictly
        # positive and both scored sequences are valid distributions.
        assert replica1[2] > 0.0
        assert 0.0 <= replica1[5] <= 1.0  # sr_transfer
        assert 0.0 <= replica1[6] <= 1.0  # sr_local
        # The exact rows of the seed-offset recipe (replica i: seed
        # +1009*i, calibration seed +7*i, drift +stagger*i).
        assert [row[0] for row in result.rows] == ["replica-0", "replica-1"]
        assert [row[1] for row in result.rows] == [2.0, 8.0]  # drift_h
        assert [row[3] for row in result.rows] == ["yes", "no"]
        assert [row[4] for row in result.rows] == [0, 0]  # substituted
        assert replica0[5] == pytest.approx(0.7569256670587922, abs=1e-9)
        assert replica0[6] == pytest.approx(0.7569256670587922, abs=1e-9)
        assert replica1[2] == pytest.approx(1.117741804631445, abs=1e-9)
        assert replica1[5] == pytest.approx(0.6931124918417194, abs=1e-9)
        assert replica1[6] == pytest.approx(0.7373163975470296, abs=1e-9)
        assert "survived" in result.summary
        assert len(result.series["sr_transfer"]) == 2

    def test_transfer_study_needs_a_replica(self):
        with pytest.raises(ReproError, match="at least one replica"):
            run_experiment("fleet_transfer", replicas=0)


class TestDeviceReport:
    def test_fig17(self, context):
        result = run_experiment("fig17", context=context, max_links=10)
        assert len(result.rows) == 10
        assert len(result.series["readout_fidelity"]) == 38
