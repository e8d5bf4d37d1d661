"""Paper experiment reproductions, one callable per figure/table.

See DESIGN.md's experiment index for the paper-artifact -> module map.
All experiments take an :class:`~repro.experiments.context.ExperimentContext`
(or build the default aged Aspen-11) and return an
:class:`~repro.experiments.reporting.ExperimentResult`. :data:`EXPERIMENTS`
maps every paper artifact id to its callable; ``python -m repro
experiments fig18`` regenerates one from scratch, and the benchmark
harness (``benchmarks/``) drives the same registry with reduced budgets.
"""

from typing import Callable, Dict, Optional

from ..exceptions import ReproError

from .ablation import (
    ablation_link_order,
    ablation_non_clifford_budget,
    ablation_probe_shots,
    fig20_reference_ablation,
)
from .characterization import (
    THETA_GRID,
    fig5_state_dependence,
    fig6_all_links,
    fig7_calibration_cycles,
    micro_benchmark_circuit,
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
from .reporting import ExperimentResult, ascii_bars, format_table

__all__ = [
    "ExperimentContext",
    "ledgers_to_text",
    "ExperimentResult",
    "format_table",
    "ascii_bars",
    "EXPERIMENTS",
    "run_experiment",
    "micro_benchmark_circuit",
    "THETA_GRID",
    "fig1c_microbenchmark",
    "fig3_ghz5_sweep",
    "fig5_state_dependence",
    "fig6_all_links",
    "fig7_calibration_cycles",
    "fig8_stale_calibration",
    "fig9_program_specific_optimum",
    "fig12_replacement_choice",
    "fig17_device_map",
    "fig18_main_evaluation",
    "fig18_multi_seed",
    "fig19_copycat_correlation",
    "fig20_reference_ablation",
    "fig21_repeated_executions",
    "fig22_best_sequence_stability",
    "table1_suite",
    "table2_copycat_counts",
    "ablation_non_clifford_budget",
    "ablation_probe_shots",
    "ablation_link_order",
    "extension_cdr_composition",
    "extension_multi_pass",
    "fleet_transfer_study",
]


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
        experiment = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from exc
    return experiment(context=context, **kwargs)
