"""Experiment registry and command-line entry point.

Every paper artifact maps to a callable; ``python -m
repro.experiments.runner fig18`` regenerates it from scratch. The
benchmark harness (``benchmarks/``) drives the same registry with
reduced budgets.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional

from ..exceptions import ReproError
from .ablation import (
    ablation_link_order,
    ablation_non_clifford_budget,
    ablation_probe_shots,
    fig20_reference_ablation,
)
from .characterization import (
    fig5_state_dependence,
    fig6_all_links,
    fig7_calibration_cycles,
)
from .context import ExperimentContext, ledgers_to_text
from .copycat_quality import fig12_replacement_choice, fig19_copycat_correlation
from .device_report import fig17_device_map
from .extensions import extension_cdr_composition, extension_multi_pass
from .drift_study import (
    fig8_stale_calibration,
    fig21_repeated_executions,
    fig22_best_sequence_stability,
)
from .fleet_transfer import fleet_transfer_study
from .main_eval import (
    fig18_main_evaluation,
    fig18_multi_seed,
    table1_suite,
    table2_copycat_counts,
)
from .motivation import (
    fig1c_microbenchmark,
    fig3_ghz5_sweep,
    fig9_program_specific_optimum,
)
from .reporting import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig1c": fig1c_microbenchmark,
    "fig3": fig3_ghz5_sweep,
    "fig5": fig5_state_dependence,
    "fig6": fig6_all_links,
    "fig7": fig7_calibration_cycles,
    "fig8": fig8_stale_calibration,
    "fig9": fig9_program_specific_optimum,
    "fig12": fig12_replacement_choice,
    "fig17": fig17_device_map,
    "fig18": fig18_main_evaluation,
    "fig19": fig19_copycat_correlation,
    "fig20": fig20_reference_ablation,
    "fig21": fig21_repeated_executions,
    "fig22": fig22_best_sequence_stability,
    "table1": table1_suite,
    "table2": table2_copycat_counts,
    "ablation_budget": ablation_non_clifford_budget,
    "ablation_shots": ablation_probe_shots,
    "ablation_order": ablation_link_order,
    "extension_cdr": extension_cdr_composition,
    "extension_passes": extension_multi_pass,
    "fig18_multi": fig18_multi_seed,
    "fleet_transfer": fleet_transfer_study,
}


def run_experiment(
    experiment_id: str,
    context: Optional[ExperimentContext] = None,
    **kwargs,
) -> ExperimentResult:
    """Run one registered experiment by its paper-artifact id."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from exc
    return runner(context=context, **kwargs)


def _pop_option(argv: list, name: str, default: str) -> str:
    """Extract ``--name value`` / ``--name=value`` from argv, in place."""
    value = default
    remaining = []
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == name and index + 1 < len(argv):
            value = argv[index + 1]
            index += 2
            continue
        if arg.startswith(name + "="):
            value = arg.split("=", 1)[1]
            index += 1
            continue
        remaining.append(arg)
        index += 1
    argv[:] = remaining
    return value


def _pop_int_option(argv: list, name: str, default: int) -> Optional[int]:
    """:func:`_pop_option` for an integer flag; ``None`` (after printing
    an error) when its value is not an integer."""
    raw = _pop_option(argv, name, str(default))
    try:
        return int(raw)
    except ValueError:
        print(f"error: {name} must be an integer", file=sys.stderr)
        return None


def main(argv: Optional[list] = None) -> int:
    """CLI: ``python -m repro.experiments.runner [--stats]
    [--backend local|remote] [--fault-profile NAME] <id>...``."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    show_stats = "--stats" in argv
    argv = [arg for arg in argv if arg != "--stats"]
    show_metrics = "--metrics" in argv
    argv = [arg for arg in argv if arg != "--metrics"]
    trace_raw = _pop_option(argv, "--trace", "")
    trace = trace_raw or None
    backend = _pop_option(argv, "--backend", "local")
    fault_profile = _pop_option(argv, "--fault-profile", "none")
    fault_seed = _pop_int_option(argv, "--fault-seed", 0)
    opt_level = _pop_int_option(argv, "--opt-level", 0)
    if fault_seed is None or opt_level is None:
        return 2
    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: python -m repro.experiments.runner [--stats] "
            "[--backend local|remote] [--fault-profile NAME] "
            "[--fault-seed N] [--opt-level {0,1,2}] "
            "[--trace FILE] [--metrics] <experiment-id>..."
        )
        print("known experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    # Reject typos before any context is built (and calibrated).
    unknown = [arg for arg in argv if arg not in EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(EXPERIMENTS))
        for experiment_id in unknown:
            print(
                f"unknown experiment {experiment_id!r}; known: {known}",
                file=sys.stderr,
            )
        return 2
    for experiment_id in argv:
        # Each experiment gets a fresh context (a fresh chip-day) so the
        # per-experiment executor ledger is attributable to it alone.
        needs_context = (
            show_stats
            or backend != "local"
            or show_metrics
            or trace is not None
            or opt_level != 0
        )
        context = (
            ExperimentContext.create(
                backend=backend,
                fault_profile=fault_profile,
                fault_seed=fault_seed,
                trace=trace,
                metrics=show_metrics,
                optimization_level=opt_level,
            )
            if needs_context
            else None
        )
        try:
            result = run_experiment(experiment_id, context=context)
            print(result.to_text())
            if context is not None and show_stats:
                print("--- execution-service stats ---")
                print(ledgers_to_text(context.ledgers()))
        finally:
            if context is not None:
                context.close()
        if context is not None:
            if show_metrics and context.metrics_registry is not None:
                print("--- metrics ---")
                print(context.metrics_registry.to_text())
            if trace is not None:
                print(f"trace written to {trace}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
