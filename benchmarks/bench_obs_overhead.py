"""Observability overhead benchmark: tracing off vs on.

The hot-path contract of :mod:`repro.obs` is that *disabled* tracing is
allocation-free — an instrumented call site costs one ``active_tracer()``
call and one identity check — so end-to-end overhead with no tracer
installed must stay under **2%** of the uninstrumented sweep, and full
tracing (every span streamed to a JSONL sink) under **15%**.

The workload is the repo's standard perf yardstick: a GHZ-7
localized-search probe sweep on Aspen-11 (per-link reference +
mass-replacement candidate batches, snapshot discipline). Three
measurements:

* ``disabled`` — no tracer installed (the default for every user who
  never passes ``--trace``): the A-side of the <2% bound;
* ``enabled`` — a Tracer bound to the device clock streaming to a JSONL
  sink plus a live MetricsRegistry: the <15% bound;
* a *microbenchmark* of the bare disabled call-site idiom
  (``active_tracer()`` + conditional), reported as ns/site to pin the
  per-site cost the <2% bound rests on.

Each trial times ``baseline`` (no tracer, a second sample of the
``disabled`` configuration), ``disabled`` and ``enabled`` back to back,
in reversed order on odd trials. Each overhead is the median over trials
of that trial's mode time divided by its baseline time (9 trials under
``--quick``, 15 otherwise).

Writes ``BENCH_obs.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick] [--check]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.compiler import transpile
from repro.core.sequence import NativeGateSequence
from repro.device.presets import aspen11
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.obs import JsonlSpanSink, MetricsRegistry, Tracer, observed
from repro.obs import runtime as obs
from repro.programs.ghz import ghz

DISABLED_OVERHEAD_BOUND = 0.02
ENABLED_OVERHEAD_BOUND = 0.15


def _probe_round(device, compiled, shots: int, rng) -> list:
    """One localized-search pass worth of probe jobs (1 + 2L shape,
    reference re-probed per link batch)."""
    reference = NativeGateSequence.uniform(compiled.sites, "cz")
    options = compiled.gate_options()
    jobs = []
    number = 0
    for link in compiled.links_used():
        link_sequences = [reference]
        for gate in sorted(g for g in options[link] if g != "cz"):
            gates = tuple(
                gate if site.link == link else ref_gate
                for site, ref_gate in zip(compiled.sites, reference.gates)
            )
            link_sequences.append(NativeGateSequence(compiled.sites, gates))
        for sequence in link_sequences:
            circuit = compiled.nativized(
                sequence, name_suffix=f"_probe{number}"
            )
            jobs.append(
                Job(
                    circuit,
                    shots,
                    seed=int(rng.integers(2**31)),
                    tag="probe",
                )
            )
            number += 1
    return jobs


def _sweep_time_s(rounds: int, shots: int, tracer=None, registry=None):
    """Wall time of the GHZ-7 probe sweep under one observability mode."""
    device = aspen11(seed=23, sim_cache=True)
    compiled = transpile(ghz(7), device)
    executor = BatchExecutor(LocalBackend(device), mode="parallel")
    rng = np.random.default_rng(5)
    jobs_total = 0
    gc.collect()  # the previous sweep's garbage is not this sweep's cost
    start = time.perf_counter()
    if tracer is None and registry is None:
        for _ in range(rounds):
            jobs = _probe_round(device, compiled, shots, rng)
            jobs_total += len(jobs)
            executor.submit_batch(jobs)
    else:
        with observed(tracer, registry):
            for _ in range(rounds):
                jobs = _probe_round(device, compiled, shots, rng)
                jobs_total += len(jobs)
                executor.submit_batch(jobs)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close()
    return elapsed, jobs_total


def _disabled_site_ns(iterations: int = 200_000) -> float:
    """ns per disabled instrumentation site: the exact call-site idiom
    (fetch the active tracer, branch to NULL_SPAN) with no tracer
    installed."""
    start = time.perf_counter()
    for _ in range(iterations):
        tracer = obs.active_tracer()
        span = tracer.span("x") if tracer else obs.NULL_SPAN
        with span:
            pass
    elapsed = time.perf_counter() - start
    return 1e9 * elapsed / iterations


_MODES = ("baseline", "disabled", "enabled")


def _mode_time_s(mode: str, rounds: int, shots: int, trace_path: str):
    if mode != "enabled":
        return _sweep_time_s(rounds, shots)
    registry = MetricsRegistry()
    tracer = Tracer(
        sink=JsonlSpanSink(trace_path), keep_spans=False, registry=registry
    )
    return _sweep_time_s(rounds, shots, tracer, registry)


def run(rounds: int, shots: int, trials: int):
    # "baseline" and "disabled" are physically the same configuration (no
    # tracer installed), so their ratio is the disabled call sites plus
    # run-to-run noise. One untimed sweep fills process-wide caches; each
    # trial then runs all three modes back to back, reversing the order on
    # odd trials so neither side of a ratio always runs first. The gate
    # reads the median of the per-trial ratios, which one slow sweep
    # cannot move.
    _sweep_time_s(rounds, shots)
    times = {mode: [] for mode in _MODES}
    ratios = {"disabled": [], "enabled": []}
    jobs_total = 0
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as trace_dir:
        for trial in range(trials):
            trace_path = os.path.join(trace_dir, f"trial{trial}.jsonl")
            for mode in _MODES if trial % 2 == 0 else _MODES[::-1]:
                elapsed, jobs_total = _mode_time_s(
                    mode, rounds, shots, trace_path
                )
                times[mode].append(elapsed)
            for mode, values in ratios.items():
                values.append(times[mode][-1] / times["baseline"][-1] - 1.0)
    median = {mode: float(np.median(values)) for mode, values in times.items()}
    disabled_overhead = float(np.median(ratios["disabled"]))
    enabled_overhead = float(np.median(ratios["enabled"]))
    site_ns = _disabled_site_ns()
    return {
        "benchmark": "obs_overhead",
        "workload": (
            f"GHZ-7 localized-search probe sweep on aspen-11 "
            f"({jobs_total} jobs x {trials} trials) @ {shots} shots"
        ),
        "baseline_s": median["baseline"],
        "disabled_s": median["disabled"],
        "enabled_s": median["enabled"],
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "disabled_site_ns": site_ns,
        "bounds": {
            "disabled": DISABLED_OVERHEAD_BOUND,
            "enabled": ENABLED_OVERHEAD_BOUND,
        },
        "samples": times,
        "overheads": ratios,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="reduced budget for CI"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless disabled overhead < 2% and "
        "enabled < 15%",
    )
    args = parser.parse_args(argv)

    rounds = 1 if args.quick else 2
    trials = 9 if args.quick else 15
    report = run(rounds, shots=256, trials=trials)

    out_path = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload : {report['workload']}")
    print(f"baseline : {report['baseline_s']:.3f} s (median)")
    print(
        f"disabled : {report['disabled_s']:.3f} s "
        f"({100 * report['disabled_overhead']:+.2f}%, median per-trial ratio)"
    )
    print(
        f"enabled  : {report['enabled_s']:.3f} s "
        f"({100 * report['enabled_overhead']:+.2f}%, median per-trial ratio)"
    )
    print(f"site cost: {report['disabled_site_ns']:.0f} ns (disabled)")
    print(f"written  : {out_path}")

    if args.check:
        if report["disabled_overhead"] >= DISABLED_OVERHEAD_BOUND:
            print(
                f"FAIL: disabled-tracer overhead "
                f"{100 * report['disabled_overhead']:.2f}% >= "
                f"{100 * DISABLED_OVERHEAD_BOUND:.0f}%",
                file=sys.stderr,
            )
            return 1
        if report["enabled_overhead"] >= ENABLED_OVERHEAD_BOUND:
            print(
                f"FAIL: enabled-tracer overhead "
                f"{100 * report['enabled_overhead']:.2f}% >= "
                f"{100 * ENABLED_OVERHEAD_BOUND:.0f}%",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
