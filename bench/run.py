"""Repository benchmark: four workloads, every metric, one command.

Run from the root of a checkout. Nothing is built: the program is pure
Python and is imported from this checkout's ``src/`` only, so the
benchmark fails (exit 1, no result line) where that tree is missing.

One workload, in this process (the last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones)::

    python3 bench/run.py --workload service_steady --seed 0 --seconds 16 --trace 0

Every workload named in BENCHMARK.json, each in a fresh process; with
``--repeat N``, N rounds in rotating order on seeds seed..seed+N-1,
then each metric's median and quartiles, flagging a quartile spread
wider than half the metric's bound::

    python3 bench/run.py [--check] [--trace] [--repeat N] [--seed N] [--seconds S]

Regenerate the pinned outputs in ``bench/expected.json``::

    python3 bench/run.py --write-expected

``--check`` makes the exit status nonzero when any output check fails.
Each run also writes ``bench/out/<workload>-seed<N>-trace<T>.json``
(metrics, sample counts, provenance) and, traced, the span file
``bench/out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PAPER_EVALUATIONS = 96


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit nonzero."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(
            f"error: repro imported from {repro.__file__}, not {package}"
        )


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over ``src/`` (path and bytes of every .py file)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, workload: str, params: dict) -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "seed": seed,
        "workload": workload,
        "params": params,
    }


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    use_checkout_source()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; known: "
            + ", ".join(workloads.WORKLOADS)
        )
    tracer = tracing.LayerTracer() if args.trace else None
    run = workloads.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        tracer=tracer,
        setups=1 if args.trace else workloads.SETUP_REPEATS,
    )
    counts = workloads.summary(run)
    print(
        f"== {run.workload}  seed={run.seed}  seconds={args.seconds}  "
        f"trace={args.trace}"
    )
    detail = {}
    if args.trace:
        units = workloads.PER_LAYER
        values = workloads.per_layer(run, tracer)
        table = tracer.layer_table()
        traced_s = sum(row["self_s"] for row in table.values()) or 1.0
        print(f"   {'layer':<22}{'calls':>8}{'items':>9}{'busy_s':>10}"
              f"{'self_s':>10}{'share':>8}")
        for layer, row in table.items():
            print(f"   {layer:<22}{row['calls']:>8}{row['items']:>9}"
                  f"{row['busy_s']:>10.4f}{row['self_s']:>10.4f}"
                  f"{row['self_s'] / traced_s:>8.1%}")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{run.workload}.jsonl"
        tracer.write_jsonl(trace_path)
        detail["layers"] = table
        detail["spans"] = len(tracer.spans)
        for name, unit in units.items():
            value = values.get(name)
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"   {name:<30}{shown:>14} {unit}")
        print(f"   spans written to {trace_path.relative_to(ROOT)}")
    else:
        units = workloads.END_TO_END
        measured = workloads.end_to_end(run)
        values = {name: value for name, (value, _) in measured.items()}
        detail["samples"] = {name: n for name, (_, n) in measured.items()}
        for name, (value, samples) in measured.items():
            print(f"   {name:<18}{value:>12.4f} {units[name]:<8} n={samples}")
    print(f"   not gated: latency_p90_s {counts['latency_p90_s']:.4f} s  "
          f"slo_attain {counts['slo_attain']:.4f} (<= {counts['slo_s']} s)  "
          f"failed_frac {counts['failed_frac']:.4f} "
          f"({counts['failed']}/{counts['attempted']})")
    for error in counts["errors"]:
        print(f"   error: {error}")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    record = dict(result, **counts, **detail)
    record["ops"] = workloads.op_records(run)
    record["provenance"] = provenance(run.seed, run.workload, run.params)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run.workload}-seed{run.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"   result with provenance: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 1 if args.check and not result["correct"] else 0


# ----------------------------------------------------------------------
# Every workload, each in a fresh process
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: int, trace: int):
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    sys.stdout.write(proc.stdout)
    print(f"   process wall {time.monotonic() - started:.1f} s, "
          f"exit {proc.returncode}", flush=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stderr)
        return None


def orchestrate(args) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {metric["name"]: metric.get("bound") for metric in declared}
    results = {name: [] for name in names}
    crashed = incorrect = 0
    for repetition in range(args.repeat):
        shift = repetition % len(names)
        for name in names[shift:] + names[:shift]:
            result = _child(name, args.seed + repetition, args.seconds,
                            args.trace)
            if result is None:
                crashed += 1
                continue
            incorrect += not result["correct"]
            results[name].append(result)
    if args.repeat > 1:
        flagged = _spread_report(results, bounds)
        print(f"{flagged} metric(s) with a quartile spread over half "
              "their bound")
    if crashed or (args.check and incorrect):
        print(f"{crashed} run(s) crashed, {incorrect} with wrong outputs")
        return 1
    return 0


def _spread_report(results: dict, bounds: dict) -> int:
    """Median and quartiles per metric; count spreads over bound / 2."""
    flagged = 0
    for name, runs in results.items():
        print(f"== {name}: {len(runs)} runs")
        print(f"   {'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs
                      if metric in r["metrics"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[metric]
            flag = ""
            if bound is not None and spread > bound / 2:
                flag = "  <- over half the bound"
                flagged += 1
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"   {metric:<30}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.3f}{shown:>8}{flag}")
    return flagged


def write_expected() -> int:
    use_checkout_source()
    import workloads

    expected = workloads.expected_outputs(EXPECTED_PAPER_EVALUATIONS)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH.relative_to(ROOT)}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when an output check fails")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (all-workload mode)")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seconds < 1 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.workload:
        return run_one(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
