"""The headline evaluation: Fig. 18, Table I, and Table II.

Fig. 18 compares three nativization policies per benchmark:

* **Baseline** — noise-adaptive selection from (stale) calibration;
* **ANGEL** — the CopyCat-learned sequence;
* **Runtime Best** — exhaustive on-device enumeration (link-granular,
  the same reduction the paper applies to keep toff_n3 feasible).

The paper reports ANGEL at 1.40x the baseline SR on average (up to 2x),
with Runtime Best marginally higher. Absolute SRs depend on the chip
day (our device seed); the reproduction target is the ordering and the
rough magnitudes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.angel import Angel, AngelConfig
from ..core.policies import runtime_best
from ..metrics import geometric_mean
from ..programs import benchmark_suite, get_benchmark
from .context import ExperimentContext
from .reporting import ExperimentResult

__all__ = ["fig18_main_evaluation", "table1_suite", "table2_copycat_counts"]


def fig18_main_evaluation(
    context: Optional[ExperimentContext] = None,
    benchmarks: Optional[Sequence[str]] = None,
    final_shots: int = 4096,
    probe_shots: int = 1024,
    runtime_best_shots: int = 1024,
    include_runtime_best: bool = True,
) -> ExperimentResult:
    """Fig. 18: relative SR of Baseline / ANGEL / Runtime Best.

    Args:
        context: Device context (default: aged Aspen-11).
        benchmarks: Benchmark names (default: the full Table I suite).
        final_shots: Shots for each policy's final program execution.
        probe_shots: Shots per ANGEL CopyCat probe.
        runtime_best_shots: Shots per exhaustive-enumeration probe.
        include_runtime_best: Disable to keep quick runs cheap.
    """
    context = context or ExperimentContext.create()
    specs = (
        [get_benchmark(name) for name in benchmarks]
        if benchmarks is not None
        else benchmark_suite()
    )
    rows: List[Tuple] = []
    angel_ratios: List[float] = []
    best_ratios: List[float] = []
    for spec in specs:
        compiled = context.transpile(spec.build())
        ideal = compiled.ideal_distribution()
        angel = Angel(
            context.device,
            context.calibration,
            AngelConfig(
                probe_shots=probe_shots,
                seed=int(context.rng.integers(2**31)),
            ),
        )
        result = angel.select(compiled)
        baseline_sr = context.measured_success_rate(
            compiled.nativized(result.reference_sequence, name_suffix="_base"),
            ideal,
            final_shots,
        )
        angel_sr = context.measured_success_rate(
            angel.nativize(compiled, result), ideal, final_shots
        )
        baseline_sr = max(baseline_sr, 1e-3)
        angel_ratio = angel_sr / baseline_sr
        angel_ratios.append(angel_ratio)
        if include_runtime_best:
            best, _ = runtime_best(
                compiled,
                shots=runtime_best_shots,
                granularity="link",
                ideal=ideal,
            )
            best_sr = context.measured_success_rate(
                compiled.nativized(best.sequence, name_suffix="_rbest"),
                ideal,
                final_shots,
            )
            best_ratio = best_sr / baseline_sr
            best_ratios.append(best_ratio)
        else:
            best_sr, best_ratio = float("nan"), float("nan")
        rows.append(
            (
                spec.name,
                baseline_sr,
                angel_sr,
                angel_ratio,
                best_sr,
                best_ratio,
                result.copycats_executed,
            )
        )
    angel_gm = geometric_mean(angel_ratios)
    summary = (
        f"ANGEL improves SR by {angel_gm:.2f}x on average"
        f" (max {max(angel_ratios):.2f}x)"
    )
    notes = [
        f"device={context.device.name}, staleness protocol applied before"
        " the evaluation (CPHASE records up to a day old)",
        f"final_shots={final_shots} probe_shots={probe_shots}",
        "paper: 1.40x average, up to 2x; runtime best marginally higher",
    ]
    if best_ratios:
        best_gm = geometric_mean(best_ratios)
        summary += f"; runtime-best achieves {best_gm:.2f}x"
    return ExperimentResult(
        experiment_id="fig18",
        title="Program success rate relative to noise-adaptive selection",
        columns=(
            "benchmark",
            "baseline SR",
            "ANGEL SR",
            "ANGEL rel",
            "runtime-best SR",
            "runtime-best rel",
            "copycats",
        ),
        rows=rows,
        notes=notes,
        summary=summary + ".",
    )


def fig18_multi_seed(
    seeds: Sequence[int] = (11, 23, 47),
    benchmarks: Optional[Sequence[str]] = None,
    drift_hours: float = 30.0,
    final_shots: int = 4096,
    probe_shots: int = 1024,
    runtime_best_shots: int = 1024,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    """Fig. 18 across several simulated chip days (robustness check).

    The paper evaluates on whatever state Aspen-11 was in during their
    window; our simulator lets us repeat the whole protocol on multiple
    independent device realizations. Reports per-seed geomeans and the
    pooled aggregate. *context* is accepted for registry uniformity but
    ignored — each seed builds its own context.
    """
    del context  # each seed is its own chip day
    rows: List[Tuple] = []
    all_angel: List[float] = []
    all_best: List[float] = []
    for seed in seeds:
        # Closing each chip day adds its ledgers to an installed registry.
        with ExperimentContext.create(
            seed=seed, drift_hours=drift_hours
        ) as ctx:
            result = fig18_main_evaluation(
                context=ctx,
                benchmarks=benchmarks,
                final_shots=final_shots,
                probe_shots=probe_shots,
                runtime_best_shots=runtime_best_shots,
            )
        angel_ratios = [row[3] for row in result.rows]
        best_ratios = [row[5] for row in result.rows]
        all_angel.extend(angel_ratios)
        all_best.extend(best_ratios)
        rows.append(
            (
                seed,
                len(result.rows),
                geometric_mean(angel_ratios),
                max(angel_ratios),
                geometric_mean(best_ratios),
            )
        )
    pooled_angel = geometric_mean(all_angel)
    pooled_best = geometric_mean(all_best)
    rows.append(
        ("pooled", len(all_angel), pooled_angel, max(all_angel), pooled_best)
    )
    return ExperimentResult(
        experiment_id="fig18_multi",
        title="Fig. 18 protocol across independent chip days",
        columns=(
            "seed",
            "benchmarks",
            "ANGEL geomean",
            "ANGEL max",
            "runtime-best geomean",
        ),
        rows=rows,
        notes=[
            f"seeds={tuple(seeds)} drift_hours={drift_hours}",
            "paper: 1.40x average, up to 2x, single machine/window",
        ],
        summary=(
            f"Pooled over {len(seeds)} chip days: ANGEL {pooled_angel:.2f}x"
            f" (max {max(all_angel):.2f}x), runtime-best {pooled_best:.2f}x."
        ),
    )


def table1_suite(
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    """Table I: the benchmark suite, plus routed CNOT-site counts.

    The paper's table lists logical qubit and CNOT counts; we add the
    post-routing site count on the actual device (this is the ``N`` of
    the ``3^N`` search space, e.g. toff_n3 grows from 6 to 9).
    """
    context = context or ExperimentContext.create()
    rows: List[Tuple] = []
    for spec in benchmark_suite():
        compiled = context.transpile(spec.build())
        rows.append(
            (
                spec.name,
                spec.description,
                spec.qubits,
                spec.logical_cnots,
                compiled.num_cnot_sites,
                len(compiled.links_used()),
            )
        )
    return ExperimentResult(
        experiment_id="table1",
        title="Benchmark suite (paper Table I + routed counts)",
        columns=(
            "name",
            "description",
            "qubits",
            "logical CNOTs",
            "routed CNOT sites",
            "links used",
        ),
        rows=rows,
        notes=[f"routed on {context.device.name} with noise-adaptive layout"],
        summary=f"{len(rows)} benchmarks spanning 2-5 qubits.",
    )


def table2_copycat_counts(
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    """Table II: CopyCats required — exhaustive ``3^N`` vs ANGEL ``1+2L``.

    Counts use the routed circuit on the actual device; links that do
    not support all three gates shrink both columns accordingly. The
    ANGEL column is verified against an actual search run.
    """
    context = context or ExperimentContext.create()
    rows: List[Tuple] = []
    for spec in benchmark_suite():
        compiled = context.transpile(spec.build())
        options = compiled.gate_options()
        exhaustive = 1
        for site in compiled.sites:
            exhaustive *= len(options[site.link])
        link_tied = 1
        for link in compiled.links_used():
            link_tied *= len(options[link])
        angel = Angel(context.device, context.calibration)
        angel_count = angel.expected_probe_count(compiled)
        rows.append(
            (
                spec.name,
                compiled.num_cnot_sites,
                len(compiled.links_used()),
                _human(exhaustive),
                _human(link_tied),
                angel_count,
            )
        )
    return ExperimentResult(
        experiment_id="table2",
        title="Number of CopyCats required (paper Table II)",
        columns=(
            "benchmark",
            "CNOT sites",
            "links",
            "exhaustive 3^N",
            "link-tied 3^L",
            "ANGEL 1+2L",
        ),
        rows=rows,
        notes=[
            "exhaustive counts use per-site gate availability; the paper"
            " ties SWAP CNOTs on one link the same way mass replacement"
            " does (its toff_n3 19.7K -> 729 note)",
        ],
        summary="ANGEL's probe budget is linear in links used.",
    )


def _human(count: int) -> str:
    if count >= 10_000:
        return f"{count / 1000.0:.1f}K"
    return str(count)
