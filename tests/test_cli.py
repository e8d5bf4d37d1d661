"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS, ExperimentResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "GHZ_n4"])
        assert args.policy == "angel"
        assert args.device == "aspen-11"

    def test_fixed_gate_policy_accepted(self):
        args = build_parser().parse_args(
            ["compile", "GHZ_n4", "--policy", "cz"]
        )
        assert args.policy == "cz"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "x", "--policy", "magic"])


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "GHZ_n4" in out
        assert "QAOA_n5" in out

    def test_draw_benchmark(self, capsys):
        assert main(["draw", "GHZ_n4"]) == 0
        out = capsys.readouterr().out
        assert "q0:" in out and "*" in out

    def test_draw_qasm_file(self, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; '
            "h q[0]; cx q[0],q[1];"
        )
        assert main(["draw", str(qasm)]) == 0
        out = capsys.readouterr().out
        assert "H" in out and "X" in out

    def test_unknown_benchmark_is_error(self, capsys):
        assert main(["draw", "definitely_not_a_benchmark"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compile_fixed_gate(self, capsys):
        code = main(
            [
                "compile",
                "tele_n2",
                "--policy",
                "cz",
                "--shots",
                "256",
                "--seed",
                "5",
                "--drift-hours",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate" in out

    def test_compile_baseline_emits_qasm(self, capsys):
        code = main(
            [
                "compile",
                "tele_n2",
                "--policy",
                "baseline",
                "--shots",
                "128",
                "--drift-hours",
                "1",
                "--emit-qasm",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0" in out

    def test_compile_angel(self, capsys):
        code = main(
            [
                "compile",
                "tele_n2",
                "--policy",
                "angel",
                "--shots",
                "128",
                "--probe-shots",
                "128",
                "--drift-hours",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CopyCat probes" in out

    def test_experiments_command(self, capsys):
        assert main(["experiments", "table2"]) == 0
        out = capsys.readouterr().out
        assert "19.7K" in out

    def test_experiments_build_a_context_only_when_a_flag_needs_one(
        self, monkeypatch, capsys
    ):
        contexts = []

        def record(context=None):
            contexts.append(context)
            return ExperimentResult("table2", "stub", ("a",), [(1,)])

        monkeypatch.setitem(EXPERIMENTS, "table2", record)
        assert main(["experiments", "table2"]) == 0
        assert main(["experiments", "--fault-seed", "3", "table2"]) == 0
        assert contexts == [None, None]
        code = main(["experiments", "--opt-level", "2", "table2", "table2"])
        assert code == 0
        first, second = contexts[2:]
        assert first is not second  # a fresh chip day per experiment
        assert first.optimization_level == second.optimization_level == 2
        assert first.backend_name == "local"

    def test_experiments_stats_metrics_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main(
            [
                "experiments",
                "--stats",
                "--metrics",
                "--trace",
                str(trace),
                "--backend",
                "remote",
                "ablation_shots",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        stats = out.index("--- execution-service stats ---")
        assert out.index("== ablation_shots") < stats
        assert stats < out.index("--- metrics ---")
        assert out.rstrip().endswith(f"trace written to {trace}")
        assert "service.completed" in out
        assert trace.exists()

    def test_device_command(self, capsys):
        assert main(["device", "--max-links", "4", "--drift-hours", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig17" in out

    def test_serve_reports_dedup_store_summary(self, capsys):
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--requests", "1",
                "--programs", "GHZ_n4",
                "--shots", "64",
                "--probe-shots", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total: 2 requests (0 failed)" in out
        assert "dedup store: " in out
        assert "publishes" in out and "evictions" in out

    def test_serve_without_dedup_prints_no_store_line(self, capsys):
        code = main(
            [
                "serve",
                "--tenants", "1",
                "--requests", "1",
                "--programs", "GHZ_n4",
                "--shots", "64",
                "--probe-shots", "16",
                "--no-dedup",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total: 1 requests (0 failed)" in out
        assert "dedup store" not in out

    def test_serve_trace_and_metrics(self, tmp_path, capsys):
        """``serve --trace --metrics`` writes one ``svc.request`` span
        per request and prints a registry summed over every request."""
        from repro.obs import active_registry, active_tracer, read_trace

        path = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--requests", "2",
                "--programs", "GHZ_n4,BV_n4",
                "--shots", "64",
                "--probe-shots", "16",
                "--trace", str(path),
                "--metrics",
            ]
        )
        assert code == 0
        assert active_tracer() is None and active_registry() is None
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        (total,) = [
            line for line in out.splitlines() if line.startswith("total:")
        ]
        probes = int(total.split(", ")[1].split()[0])  # "N probes"
        metrics = out.split("--- metrics ---\n", 1)[1]
        counters = dict(
            line.split()[:2] for line in metrics.splitlines() if line.strip()
        )
        assert int(counters["exec.jobs"]) == probes + 4
        assert int(counters["exec.jobs_by_tag.final"]) == 4
        requests = [
            span for span in read_trace(str(path))
            if span["name"] == "svc.request"
        ]
        assert len(requests) == 4
        assert sum(span["attributes"]["probes"] for span in requests) == probes

    @pytest.mark.parametrize(
        "flag", ["--window-jobs", "--shots", "--probe-shots"]
    )
    def test_serve_rejects_non_positive_numeric_flag(self, flag, capsys):
        code = main(
            [
                "serve",
                "--tenants", "1",
                "--requests", "1",
                "--programs", "GHZ_n4",
                flag, "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
