"""Service-resilience benchmark: RemoteBackend vs LocalBackend.

Standalone script (no pytest-benchmark dependency) measuring (a) the
zero-fault overhead of routing ANGEL's GHZ-5 probe workload through the
emulated cloud service + resilient RemoteBackend instead of the direct
LocalBackend, and (b) completion + degradation behaviour under each
fault profile. Writes ``BENCH_service.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_resilience.py [--quick]

``--quick`` trims probe shots for CI smoke runs. The acceptance bar
(enforced by ``--check``) is:

* zero-fault remote is *bit-identical* to local (same learned sequence,
  same probe success rates, same device clock);
* every fault profile completes the full ``1 + 2L`` probe budget
  without raising.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.angel import Angel, AngelConfig
from repro.experiments.context import ExperimentContext
from repro.programs.ghz import ghz
from repro.service import FAULT_PROFILES


def _angel_run(ctx, probe_shots: int, seed: int = 3):
    angel = Angel(
        ctx.device,
        ctx.calibration,
        AngelConfig(probe_shots=probe_shots, seed=seed),
    )
    start = time.perf_counter()
    compiled, result = angel.compile_and_select(ghz(5))
    elapsed = time.perf_counter() - start
    return angel, compiled, result, elapsed


def run(probe_shots: int):
    report = {
        "benchmark": "service_resilience",
        "workload": f"ANGEL GHZ-5 localized search @ {probe_shots} shots",
        "profiles": {},
    }

    # Baseline: the direct local path.
    ctx_local = ExperimentContext.create()
    _, _, result_local, local_s = _angel_run(ctx_local, probe_shots)
    report["local"] = {
        "wall_time_s": local_s,
        "sequence": list(result_local.sequence.gates),
        "clock_us": ctx_local.device.clock_us,
    }

    for name in sorted(FAULT_PROFILES):
        ctx = ExperimentContext.create(
            backend="remote", fault_profile=name, fault_seed=7
        )
        angel, compiled, result, elapsed = _angel_run(ctx, probe_shots)
        ledgers = ctx.ledgers()
        remote = ledgers["remote"]
        report["profiles"][name] = {
            "wall_time_s": elapsed,
            "overhead_vs_local": elapsed / local_s if local_s else None,
            "probes_submitted": result.copycats_executed,
            "probe_budget": angel.expected_probe_count(compiled),
            "probes_failed": result.trace.num_failed,
            "degraded_links": len(result.degraded_links),
            "retries": remote["retries"],
            "job_failures": remote["failures"],
            "breaker_trips": remote["breaker_trips"],
            "fallbacks": ledgers["exec"]["fallbacks"],
            "sequence": list(result.sequence.gates),
            "clock_us": ctx.device.clock_us,
        }

    zero = report["profiles"]["none"]
    report["zero_fault_bit_identical"] = (
        zero["sequence"] == report["local"]["sequence"]
        and zero["clock_us"] == report["local"]["clock_us"]
        and zero["retries"] == 0
        and zero["job_failures"] == 0
    )
    report["all_profiles_completed_budget"] = all(
        p["probes_submitted"] == p["probe_budget"]
        for p in report["profiles"].values()
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="reduced budget for CI"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit nonzero unless zero-fault is bit-identical to local "
            "and every profile completes the probe budget"
        ),
    )
    args = parser.parse_args(argv)

    probe_shots = 100 if args.quick else 400
    report = run(probe_shots)

    out_path = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload : {report['workload']}")
    print(f"local    : {report['local']['wall_time_s'] * 1e3:.0f} ms")
    for name, p in report["profiles"].items():
        print(
            f"{name:<9}: {p['wall_time_s'] * 1e3:.0f} ms "
            f"({p['overhead_vs_local']:.2f}x), "
            f"retries={p['retries']}, failed={p['probes_failed']}, "
            f"degraded={p['degraded_links']}"
        )
    print(f"zero-fault bit-identical: {report['zero_fault_bit_identical']}")
    print(f"all budgets completed   : {report['all_profiles_completed_budget']}")
    print(f"written  : {out_path}")

    if args.check:
        if not report["zero_fault_bit_identical"]:
            print(
                "FAIL: zero-fault remote diverges from local",
                file=sys.stderr,
            )
            return 1
        if not report["all_profiles_completed_budget"]:
            print(
                "FAIL: a fault profile did not complete the probe budget",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
