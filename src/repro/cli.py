"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile`` (alias ``angel``) — nativize a program (Table I name or
  OpenQASM file) for a simulated device under a chosen policy
  (baseline / angel / a fixed gate), execute it, and report the
  success rate.
* ``serve`` — replay a synthetic multi-tenant workload through the
  :class:`~repro.service.AngelService` compile service (fair
  scheduling, probe coalescing, cross-tenant dedup).
* ``load`` — drive the compile service from a workload file
  (:mod:`repro.loadgen`): seeded arrival processes, SLO percentile
  extraction from spans, and a pass/fail verdict table (``--check``
  turns violations into a nonzero exit).
* ``experiments`` — regenerate paper artifacts (delegates to
  :mod:`repro.experiments.runner`).
* ``device`` — print a device's topology and calibrated fidelity map.
* ``suite`` — print the benchmark suite (Table I).
* ``draw`` — ASCII-render a program.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from .circuit import QuantumCircuit, from_qasm, to_qasm
from .compiler import OPTIMIZATION_LEVELS
from .core import Angel, AngelConfig, NativeGateSequence
from .device.native_gates import NATIVE_TWO_QUBIT_GATES
from .exceptions import ReproError
from .exec import Job
from .experiments import ExperimentContext, run_experiment
from .metrics import success_rate_from_counts
from .programs import benchmark_suite, get_benchmark
from .service import FAULT_PROFILES

__all__ = ["main", "build_parser"]


def _load_program(source: str) -> QuantumCircuit:
    """A Table I benchmark name, or a path to an OpenQASM 2 file."""
    path = Path(source)
    if path.exists():
        circuit = from_qasm(path.read_text())
        circuit.name = path.stem
        return circuit
    return get_benchmark(source).build()


def _make_context(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext.create(
        device_name=args.device,
        seed=args.seed,
        drift_hours=args.drift_hours,
        backend=getattr(args, "backend", "local"),
        fault_profile=getattr(args, "fault_profile", "none"),
        fault_seed=getattr(args, "fault_seed", 0),
        trace=getattr(args, "trace", None),
        metrics=getattr(args, "metrics", False),
        optimization_level=getattr(args, "opt_level", 0),
    )


def _finish_context(
    context: ExperimentContext, args: argparse.Namespace
) -> None:
    """Close the context, then print the metrics ledger if asked."""
    context.close()
    if getattr(args, "metrics", False) and context.metrics_registry:
        print("--- metrics ---")
        print(context.metrics_registry.to_text())
    if getattr(args, "trace", None):
        print(f"trace written to {args.trace}")


def _add_context_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device",
        default="aspen-11",
        choices=("aspen-11", "aspen-m-1"),
        help="simulated device preset",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="device / chip-day seed"
    )
    parser.add_argument(
        "--drift-hours",
        type=float,
        default=30.0,
        help="hours of drift since the last full calibration",
    )
    parser.add_argument(
        "--backend",
        default="local",
        choices=("local", "remote"),
        help="run jobs on the in-process device or through the "
        "emulated cloud QPU service (repro.service)",
    )
    parser.add_argument(
        "--fault-profile",
        default="none",
        choices=sorted(FAULT_PROFILES),
        help="cloud-service fault injection preset (remote backend)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the service fault stream and backoff jitter",
    )
    parser.add_argument(
        "--opt-level",
        type=int,
        default=0,
        choices=OPTIMIZATION_LEVELS,
        help="pre-routing circuit optimization level (0 = off, the "
        "bit-identical default; 1 = cancellation/merging/fusion; "
        "2 = level 1 plus two-qubit rewrites and native cleanup)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="stream a JSONL span trace of the run to FILE "
        "(search passes, links, probes, backend jobs)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (executor/cache/service "
        "counters) after the run",
    )


def _configure_compile_parser(parser: argparse.ArgumentParser) -> None:
    """Shared argument set for ``compile`` and its ``angel`` alias.

    ``angel`` is registered as a full subparser (not an argparse alias)
    so its usage/error messages carry the name the user actually typed
    — argparse aliases print the canonical name, which made ``repro
    angel`` error paths inconsistent with ``repro compile``.
    """
    parser.add_argument(
        "program", help="Table I benchmark name or OpenQASM 2 file path"
    )
    parser.add_argument(
        "--policy",
        default="angel",
        choices=("angel", "baseline", *NATIVE_TWO_QUBIT_GATES),
        help="native gate selection policy (or a fixed gate)",
    )
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--probe-shots", type=int, default=1024)
    parser.add_argument(
        "--emit-qasm",
        action="store_true",
        help="print the native circuit as OpenQASM",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print execution-service statistics (jobs/shots per phase)",
    )
    _add_context_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ANGEL (HPCA 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _configure_compile_parser(
        sub.add_parser("compile", help="nativize and execute a program")
    )
    _configure_compile_parser(
        sub.add_parser("angel", help="alias for compile")
    )

    serve_parser = sub.add_parser(
        "serve",
        help="replay a multi-tenant workload through the compile service",
    )
    serve_parser.add_argument(
        "--tenants", type=int, default=4, help="number of synthetic tenants"
    )
    serve_parser.add_argument(
        "--requests",
        type=int,
        default=2,
        help="compile requests per tenant",
    )
    serve_parser.add_argument(
        "--programs",
        default="GHZ_n4,BV_n4,QAOA_n5",
        help="comma-separated benchmark names cycled across requests",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="service thread-pool size (scheduled units in flight)",
    )
    serve_parser.add_argument(
        "--window-jobs",
        type=int,
        default=None,
        help="per-round job budget for the DRR scheduler (align with "
        "the fault profile's calibration-window quota)",
    )
    serve_parser.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable the cross-tenant probe-distribution store",
    )
    serve_parser.add_argument("--shots", type=int, default=1024)
    serve_parser.add_argument("--probe-shots", type=int, default=256)
    serve_parser.add_argument(
        "--fleet",
        type=int,
        default=0,
        metavar="N",
        help="route requests across N independently drifting device "
        "replicas (0 disables fleet mode)",
    )
    serve_parser.add_argument(
        "--fleet-stagger-hours",
        type=float,
        default=0.0,
        help="calibration-cadence stagger between consecutive replicas",
    )
    serve_parser.add_argument(
        "--fleet-record",
        metavar="FILE",
        default=None,
        help="write the router's placement map to FILE (JSON) for replay",
    )
    serve_parser.add_argument(
        "--fleet-replay",
        metavar="FILE",
        default=None,
        help="replay a recorded placement map instead of live routing",
    )
    _add_context_arguments(serve_parser)

    load_parser = sub.add_parser(
        "load",
        help="drive the compile service from a workload file and "
        "gate on its SLO bounds",
    )
    load_parser.add_argument(
        "--workload",
        required=True,
        metavar="FILE",
        help="workload spec (.yaml/.yml/.json; see "
        "examples/workload_burst.yaml)",
    )
    load_parser.add_argument(
        "--pacing",
        default="none",
        choices=("none", "wall"),
        help="'none' submits in schedule order as fast as possible "
        "(CI mode); 'wall' honors offsets on the host clock",
    )
    load_parser.add_argument(
        "--speedup",
        type=float,
        default=1.0,
        help="with --pacing wall, divide every offset/think time by "
        "this factor",
    )
    load_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the workload's schedule seed",
    )
    load_parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="stream the run's JSONL span trace to FILE",
    )
    load_parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the full SLO analysis + verdict as JSON to FILE",
    )
    load_parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when any request fails or any declared SLO "
        "bound is violated",
    )

    experiments_parser = sub.add_parser(
        "experiments", help="regenerate paper artifacts"
    )
    experiments_parser.add_argument("ids", nargs="+", metavar="experiment-id")

    device_parser = sub.add_parser("device", help="device fidelity map")
    device_parser.add_argument("--max-links", type=int, default=None)
    _add_context_arguments(device_parser)

    sub.add_parser("suite", help="print the benchmark suite (Table I)")

    draw_parser = sub.add_parser("draw", help="ASCII-render a program")
    draw_parser.add_argument(
        "program", help="Table I benchmark name or OpenQASM 2 file path"
    )
    return parser


def _command_compile(args: argparse.Namespace) -> int:
    context = _make_context(args)
    try:
        return _run_compile(context, args)
    finally:
        # Error paths (ReproError, interrupts) must still restore
        # observability; close is idempotent, so the happy path's
        # _finish_context close is harmless.
        context.close()


def _run_compile(
    context: ExperimentContext, args: argparse.Namespace
) -> int:
    program = _load_program(args.program)
    compiled = context.transpile(program)
    ideal = compiled.ideal_distribution()
    print(
        f"{program.name}: {compiled.num_cnot_sites} CNOT sites on "
        f"{len(compiled.links_used())} links of {context.device.name}"
    )
    executor = context.executor
    if args.policy == "angel":
        angel = Angel(
            context.device,
            context.calibration,
            AngelConfig(probe_shots=args.probe_shots, seed=args.seed),
            executor=executor,
        )
        result = angel.select(compiled)
        sequence = result.sequence
        print(
            f"ANGEL: {result.copycats_executed} CopyCat probes; "
            f"{result.reference_sequence.label()} -> {sequence.label()}"
        )
        if result.degraded_links:
            print(
                f"degraded links (probe failures; calibration choice "
                f"kept): {sorted(result.degraded_links)}"
            )
    elif args.policy == "baseline":
        from .core import noise_adaptive_sequence

        sequence = noise_adaptive_sequence(
            compiled.sites, context.calibration, compiled.gate_options()
        )
        print(f"baseline (noise-adaptive): {sequence.label()}")
    else:
        sequence = NativeGateSequence.uniform(compiled.sites, args.policy)
        print(f"fixed gate: {sequence.label()}")
    native = compiled.nativized(sequence, name_suffix=f"_{args.policy}")
    result = executor.submit(Job(native, args.shots, tag="final"))
    sr = success_rate_from_counts(ideal, result.counts)
    print(f"success rate over {args.shots} shots: {sr:.4f}")
    if args.stats:
        print("--- execution-service stats ---")
        print(executor.stats.to_text())
    if args.emit_qasm:
        print()
        print(to_qasm(native))
    _finish_context(context, args)
    return 0


def _command_device(args: argparse.Namespace) -> int:
    context = _make_context(args)
    try:
        result = run_experiment(
            "fig17", context=context, max_links=args.max_links
        )
        print(result.to_text())
        _finish_context(context, args)
        return 0
    finally:
        context.close()


def _command_serve(args: argparse.Namespace) -> int:
    from .service import (
        AngelService,
        RequestSpec,
        TenantConfig,
        replay_workload,
    )

    programs = [name for name in args.programs.split(",") if name]
    if not programs:
        raise ReproError("--programs must name at least one benchmark")
    if args.tenants < 1 or args.requests < 1:
        raise ReproError("--tenants and --requests must be >= 1")
    if args.fleet < 0:
        raise ReproError("--fleet must be >= 0")
    if (args.fleet_record or args.fleet_replay) and not args.fleet:
        raise ReproError(
            "--fleet-record/--fleet-replay require --fleet N"
        )
    for name in programs:
        get_benchmark(name)  # fail fast on typos
    base = RequestSpec(
        program=programs[0],
        shots=args.shots,
        probe_shots=args.probe_shots,
        device_name=args.device,
        seed=args.seed,
        drift_hours=args.drift_hours,
        backend=args.backend,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
        opt_level=args.opt_level,
    )
    workload = {
        f"tenant-{index}": [
            dataclasses.replace(
                base, program=programs[request % len(programs)]
            )
            for request in range(args.requests)
        ]
        for index in range(args.tenants)
    }
    fleet = None
    placements = None
    if args.fleet:
        from .fleet import FleetSpec

        fleet = FleetSpec.create(
            args.fleet, stagger_hours=args.fleet_stagger_hours
        )
        if args.fleet_replay:
            placements = json.loads(Path(args.fleet_replay).read_text())
    # The service is created here (not inside replay_workload) so the
    # end-of-run summary can read its store/fleet ledgers before close.
    service = AngelService(
        num_workers=args.workers,
        round_budget_jobs=args.window_jobs,
        dedup=not args.no_dedup,
        tenants=tuple(TenantConfig(name) for name in sorted(workload)),
        fleet=fleet,
        fleet_placements=placements,
    )
    try:
        outcomes = replay_workload(workload, service=service)
    finally:
        service.close()
    total = failed = probes = dedup_hits = 0
    print(
        f"{'tenant':12s} {'ok':>4s} {'fail':>5s} {'probes':>7s} "
        f"{'dedup':>6s} {'mean latency':>13s}"
    )
    for name in sorted(outcomes):
        slots = outcomes[name]
        done = [o for o in slots if not isinstance(o, BaseException)]
        latencies = [o.latency_s for o in done]
        mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
        tenant_probes = sum(o.probes_run for o in done)
        tenant_dedup = sum(o.dedup_hits for o in done)
        print(
            f"{name:12s} {len(done):>4d} {len(slots) - len(done):>5d} "
            f"{tenant_probes:>7d} {tenant_dedup:>6d} "
            f"{mean_latency:>12.3f}s"
        )
        total += len(slots)
        failed += len(slots) - len(done)
        probes += tenant_probes
        dedup_hits += tenant_dedup
    ratio = dedup_hits / probes if probes else 0.0
    print(
        f"total: {total} requests ({failed} failed), {probes} probes, "
        f"{dedup_hits} dedup hits ({ratio:.1%})"
    )
    for row in service.store_stats():
        print(
            f"dedup store [{row['partition']}]: {row['hits']} hits, "
            f"{row['publishes']} publishes, {row['evictions']} "
            f"evictions ({row['entries']} entries)"
        )
    report = service.fleet_report()
    if report is not None:
        print(
            f"{'replica':12s} {'placed':>6s} {'jobs':>6s} "
            f"{'peak-q':>6s} {'device-time':>12s}"
        )
        for replica in report["replicas"]:
            print(
                f"{replica['name']:12s} {replica['placements']:>6d} "
                f"{replica['jobs']:>6d} {replica['peak_queue_depth']:>6d} "
                f"{replica['device_time_us'] / 1e6:>11.3f}s"
            )
        router = report["router"]
        print(
            f"router: {router['placements']} placements, "
            f"{router['migrations']} migrations, affinity-hit ratio "
            f"{router['affinity_hit_ratio']:.1%}"
        )
        if args.fleet_record:
            record_path = Path(args.fleet_record)
            record_path.write_text(
                json.dumps(service.fleet.placement_map(), indent=2)
                + "\n"
            )
            print(f"placements recorded to {record_path}")
    return 0


def _command_load(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from .loadgen import LoadGenerator, load_workload

    workload = load_workload(args.workload)
    if args.seed is not None:
        workload = _dc.replace(workload, seed=args.seed)
    generator = LoadGenerator(workload)
    schedule = generator.schedule()
    print(
        f"workload {workload.name!r}: {len(workload.tenants)} tenants, "
        f"{len(schedule)} requests, seed {workload.seed}, "
        f"{workload.workers} service workers"
        + (f", fleet {workload.fleet}" if workload.fleet else "")
    )
    report = generator.run(
        pacing=args.pacing,
        speedup=args.speedup,
        trace_path=args.trace,
    )
    analysis = report.analyze()
    print(
        f"{'tenant':12s} {'ok':>4s} {'fail':>5s} {'rej':>4s} "
        f"{'p50':>8s} {'p95':>8s} {'q-p95':>8s} {'dedup':>6s}"
    )
    for name, block in analysis["per_tenant"].items():
        print(
            f"{name:12s} {block['completed']:>4d} {block['failed']:>5d} "
            f"{report.tenant_report.get(name, {}).get('rejected', 0):>4} "
            f"{block['latency']['host']['p50_s']:>7.3f}s "
            f"{block['latency']['host']['p95_s']:>7.3f}s "
            f"{block['queue_wait']['p95_s']:>7.3f}s "
            f"{block['dedup']['ratio']:>6.1%}"
        )
    print(
        f"total: {analysis['completed']}/{analysis['requests']} completed "
        f"({analysis['rejected']} rejected, "
        f"{analysis['rejection_rate']:.1%}) in "
        f"{report.wall_time_s:.2f}s = "
        f"{analysis['throughput_rps']:.2f} req/s"
    )
    latency = analysis["latency"]
    print(
        f"latency: host p50 {latency['host']['p50_s']:.3f}s / "
        f"p95 {latency['host']['p95_s']:.3f}s / "
        f"p99 {latency['host']['p99_s']:.3f}s "
        f"(jitter {latency['host']['jitter_s']:.3f}s); "
        f"device p95 {latency['device']['p95_us'] / 1e6:.3f}s simulated"
    )
    coalescing = analysis["coalescing"]
    print(
        f"coalescing: {coalescing['rounds']} rounds, "
        f"{coalescing['mean_units_per_round']:.2f} units/round; "
        f"dedup ratio {analysis['dedup']['ratio']:.1%}"
    )
    verdict = report.verdict()
    if workload.slo:
        print()
        print(verdict.to_text())
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.out:
        payload = {
            "workload": workload.to_dict(),
            "analysis": analysis,
            "verdict": verdict.to_dict(),
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.out}")
    if args.check and (report.failed or not verdict.passed):
        reasons = []
        if report.failed:
            reasons.append(f"{report.failed} requests failed")
        if not verdict.passed:
            reasons.append(
                f"{len(verdict.violations)} SLO bounds violated"
            )
        print(f"CHECK FAILED: {'; '.join(reasons)}", file=sys.stderr)
        return 1
    return 0


def _command_suite() -> int:
    print(f"{'name':12s} {'qubits':>6s} {'CNOTs':>6s}  description")
    for spec in benchmark_suite(include_extras=True):
        print(
            f"{spec.name:12s} {spec.qubits:>6d} {spec.logical_cnots:>6d}"
            f"  {spec.description}"
        )
    return 0


def _command_draw(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    print(program.draw())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("compile", "angel"):
            return _command_compile(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "load":
            return _command_load(args)
        if args.command == "experiments":
            for experiment_id in args.ids:
                print(run_experiment(experiment_id).to_text())
                print()
            return 0
        if args.command == "device":
            return _command_device(args)
        if args.command == "suite":
            return _command_suite()
        if args.command == "draw":
            return _command_draw(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces command choice


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
