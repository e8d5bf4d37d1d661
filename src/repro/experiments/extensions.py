"""Extensions beyond the paper's evaluation.

* :func:`extension_cdr_composition` — the paper's stated future work
  (Section VII-B): compose ANGEL with Clifford Data Regression and
  measure whether better nativization improves the post-processor.
* :func:`extension_multi_pass` — address Section VI-E limitation (1)
  (ANGEL's restricted search space) with repeated link sweeps, and
  measure what the extra probes buy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.angel import Angel, AngelConfig
from ..core.cdr import CliffordDataRegression, parity_expectation
from ..core.policies import noise_adaptive_sequence
from ..programs import get_benchmark
from .context import ExperimentContext
from .reporting import ExperimentResult

__all__ = ["extension_cdr_composition", "extension_multi_pass"]


def extension_cdr_composition(
    context: Optional[ExperimentContext] = None,
    benchmark: str = "VQE_n4",
    num_training: int = 12,
    training_shots: int = 1024,
    target_shots: int = 4096,
    probe_shots: int = 1024,
) -> ExperimentResult:
    """ANGEL x CDR: does better nativization improve error mitigation?

    Measures the absolute error of the Z...Z parity expectation under
    four configurations: {baseline, ANGEL nativization} x {raw, CDR
    mitigated}. The paper conjectures ANGEL "can further improve the
    effectiveness of CDR" because both the training circuits and the
    target run through better native gates.
    """
    context = context or ExperimentContext.create()
    spec = get_benchmark(benchmark)
    compiled = context.transpile(spec.build())
    ideal_value = parity_expectation(compiled.ideal_distribution())

    angel = Angel(
        context.device,
        context.calibration,
        AngelConfig(
            probe_shots=probe_shots, seed=int(context.rng.integers(2**31))
        ),
    )
    result = angel.select(compiled)
    sequences = (
        ("baseline", result.reference_sequence),
        ("ANGEL", result.sequence),
    )
    rows: List[Tuple] = []
    errors = {}
    for label, sequence in sequences:
        cdr = CliffordDataRegression(
            context.device,
            num_training=num_training,
            shots=training_shots,
            seed=int(context.rng.integers(2**31)),
        )
        raw, mitigated, fit = cdr.mitigated_expectation(
            compiled, sequence, target_shots=target_shots
        )
        raw_error = abs(raw - ideal_value)
        mitigated_error = abs(mitigated - ideal_value)
        errors[label] = (raw_error, mitigated_error)
        rows.append(
            (
                label,
                sequence.label(),
                raw,
                mitigated,
                raw_error,
                mitigated_error,
                fit.slope,
            )
        )
    return ExperimentResult(
        experiment_id="extension_cdr",
        title=f"ANGEL x CDR composition on {benchmark} (parity observable)",
        columns=(
            "nativization",
            "sequence",
            "raw <Z..Z>",
            "CDR <Z..Z>",
            "raw |err|",
            "CDR |err|",
            "fit slope",
        ),
        rows=rows,
        notes=[
            f"ideal parity: {ideal_value:.4f};"
            f" training circuits: {num_training} x {training_shots} shots",
            "paper Section VII-B proposes this composition as future work",
        ],
        summary=(
            f"CDR error with ANGEL nativization: "
            f"{errors['ANGEL'][1]:.4f} vs {errors['baseline'][1]:.4f} with"
            " baseline nativization."
        ),
    )


def extension_multi_pass(
    context: Optional[ExperimentContext] = None,
    benchmarks: Sequence[str] = ("GHZ_n4", "QEC_n4", "toff_n3"),
    passes: Sequence[int] = (1, 2, 3),
    probe_shots: int = 1024,
    final_shots: int = 2048,
) -> ExperimentResult:
    """Multi-pass localized search: SR and probe cost per pass budget.

    Pass 1 is the paper's ANGEL. Extra passes revisit links in the
    context of all earlier replacements; the search self-terminates on a
    quiet pass, so probe counts grow sublinearly.
    """
    context = context or ExperimentContext.create()
    rows: List[Tuple] = []
    for name in benchmarks:
        spec = get_benchmark(name)
        compiled = context.transpile(spec.build())
        ideal = compiled.ideal_distribution()
        seed = int(context.rng.integers(2**31))
        for max_passes in passes:
            angel = Angel(
                context.device,
                context.calibration,
                AngelConfig(
                    probe_shots=probe_shots,
                    max_passes=max_passes,
                    seed=seed,
                ),
            )
            result = angel.select(compiled)
            sr = context.measured_success_rate(
                angel.nativize(compiled, result), ideal, final_shots
            )
            rows.append(
                (
                    name,
                    max_passes,
                    result.copycats_executed,
                    result.trace.num_updates,
                    result.sequence.label(),
                    sr,
                )
            )
    return ExperimentResult(
        experiment_id="extension_passes",
        title="Multi-pass localized search (extension of Section VI-E)",
        columns=(
            "benchmark",
            "max passes",
            "probes",
            "updates",
            "learned sequence",
            "final SR",
        ),
        rows=rows,
        notes=[
            f"device={context.device.name} probe_shots={probe_shots}",
            "pass 1 == the paper's ANGEL; extra passes stop early once a"
            " sweep produces no replacement",
        ],
        summary="Additional passes expand the explored space at linear probe cost.",
    )
