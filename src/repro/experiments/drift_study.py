"""Drift studies: Figs. 8, 21, and 22.

Fig. 8 contrasts the device's *true* drifting error rate with the
plateaued values calibration publishes between refreshes. Figs. 21-22
re-run a GHZ_n4 program many times inside one calibration window and
watch the runtime-best sequence wander — the paper's honest accounting
of when ANGEL's learned sequence stops being optimal.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..core.angel import Angel, AngelConfig
from ..core.policies import noise_adaptive_sequence
from ..core.sequence import enumerate_sequences
from ..device.topology import Link
from ..programs import ghz_n4
from .context import ExperimentContext
from .reporting import ExperimentResult

__all__ = [
    "fig8_stale_calibration",
    "fig21_repeated_executions",
    "fig22_best_sequence_stability",
]

_HOUR_US = 3_600e6


def fig8_stale_calibration(
    context: Optional[ExperimentContext] = None,
    link_index: int = 0,
    hours: float = 48.0,
    step_hours: float = 1.0,
) -> ExperimentResult:
    """Fig. 8: true vs reported error rate of each gate over time.

    Advances the clock hour by hour; at each step records the true
    per-pulse error (1 - fidelity) and the value calibration currently
    publishes. The reported series moves only at cadence refreshes —
    the paper's plateaus — while the truth drifts continuously.
    """
    context = context or ExperimentContext.create(drift_hours=0.0)
    link = context.pick_link(link_index)
    gates = context.device.supported_gates(*link)
    series: Dict[str, List[float]] = {}
    for gate in gates:
        series[f"true_error_{gate}"] = []
        series[f"reported_error_{gate}"] = []
    steps = int(round(hours / step_hours))
    refreshes = 0
    for _ in range(steps):
        context.device.advance_time(step_hours * _HOUR_US)
        refreshes += len(context.service.maybe_recalibrate())
        for gate in gates:
            series[f"true_error_{gate}"].append(
                1.0 - context.device.true_pulse_fidelity(link, gate)
            )
            series[f"reported_error_{gate}"].append(
                1.0 - context.calibration.two_qubit_fidelity(link, gate)
            )
    rows: List[Tuple] = []
    for gate in gates:
        true = series[f"true_error_{gate}"]
        reported = series[f"reported_error_{gate}"]
        plateaus = sum(
            1
            for i in range(1, len(reported))
            if abs(reported[i] - reported[i - 1]) < 1e-12
        )
        divergence = max(abs(t - r) for t, r in zip(true, reported))
        rows.append(
            (
                gate.upper(),
                f"{min(true):.4f}..{max(true):.4f}",
                plateaus,
                len(reported) - 1,
                divergence,
            )
        )
    return ExperimentResult(
        experiment_id="fig8",
        title=f"True vs calibration-reported error rates over {hours:.0f}h (link {link})",
        columns=(
            "gate",
            "true error range",
            "plateau steps",
            "total steps",
            "max |true - reported|",
        ),
        rows=rows,
        series=series,
        notes=[
            f"device={context.device.name}; cadence refreshes observed: {refreshes}",
            "reported error stays flat between refreshes while the true"
            " error drifts (the paper's plateaus)",
        ],
        summary=(
            "Calibration records plateau between refreshes while the"
            " device drifts underneath them."
        ),
    )


def fig21_repeated_executions(
    context: Optional[ExperimentContext] = None,
    iterations: int = 10,
    gap_hours: float = 1.0,
    shots: int = 1024,
    probe_shots: int = 1024,
) -> ExperimentResult:
    """Fig. 21: GHZ_n4 repeatedly executed inside a calibration window.

    Each iteration measures (a) the fixed noise-adaptive sequence,
    (b) the sequence ANGEL learned at iteration 0, and (c) that
    iteration's runtime-best over the 27 link-uniform sequences; the
    device drifts between iterations. ANGEL usually stays ahead of the
    baseline; under strong drift its edge narrows (the paper's second
    example).
    """
    context = context or ExperimentContext.create()
    compiled = context.transpile(ghz_n4())
    ideal = compiled.ideal_distribution()
    options = compiled.gate_options()
    na_seq = noise_adaptive_sequence(compiled.sites, context.calibration, options)
    angel = Angel(
        context.device,
        context.calibration,
        AngelConfig(probe_shots=probe_shots, seed=int(context.rng.integers(2**31))),
    )
    learned = angel.select(compiled).sequence

    rows: List[Tuple] = []
    series = {"baseline": [], "angel": [], "runtime_best": []}
    best_labels: List[str] = []
    for iteration in range(iterations):
        base_sr = context.measured_success_rate(
            compiled.nativized(na_seq, name_suffix="_f21b"), ideal, shots
        )
        angel_sr = context.measured_success_rate(
            compiled.nativized(learned, name_suffix="_f21a"), ideal, shots
        )
        best_sr, best_label = -1.0, ""
        for sequence in enumerate_sequences(compiled.sites, options, "link"):
            sr = context.measured_success_rate(
                compiled.nativized(sequence, name_suffix="_f21r"),
                ideal,
                shots,
            )
            if sr > best_sr:
                best_sr, best_label = sr, sequence.label()
        series["baseline"].append(base_sr)
        series["angel"].append(angel_sr)
        series["runtime_best"].append(best_sr)
        best_labels.append(best_label)
        rows.append((iteration, base_sr, angel_sr, best_sr, best_label))
        context.device.advance_time(gap_hours * _HOUR_US)
    wins = sum(1 for b, a in zip(series["baseline"], series["angel"]) if a > b)
    return ExperimentResult(
        experiment_id="fig21",
        title="GHZ_n4 repeated executions within a calibration window",
        columns=("iteration", "baseline SR", "ANGEL SR", "runtime-best SR", "best sequence"),
        rows=rows,
        series=series,
        notes=[
            f"device={context.device.name} iterations={iterations}"
            f" gap={gap_hours}h shots={shots}",
            f"learned sequence (iteration 0): {learned.label()}",
            f"distinct runtime-best sequences: {len(set(best_labels))}",
        ],
        summary=(
            f"ANGEL beat the baseline in {wins}/{iterations} iterations;"
            " drift varies the runtime-best sequence across iterations."
        ),
    )


def fig22_best_sequence_stability(
    context: Optional[ExperimentContext] = None,
    iterations: int = 10,
    gap_hours: float = 1.0,
    shots: int = 1024,
) -> ExperimentResult:
    """Fig. 22: histogram of which sequence is runtime-best per iteration.

    A stable winner (one sequence dominating most iterations) is what
    lets ANGEL's one-shot learning stay valid; a flat histogram marks
    the strong-drift regime where any learned sequence decays.
    """
    context = context or ExperimentContext.create()
    compiled = context.transpile(ghz_n4())
    ideal = compiled.ideal_distribution()
    options = compiled.gate_options()
    histogram: Dict[str, int] = {}
    for _ in range(iterations):
        best_sr, best_label = -1.0, ""
        for sequence in enumerate_sequences(compiled.sites, options, "link"):
            sr = context.measured_success_rate(
                compiled.nativized(sequence, name_suffix="_f22"), ideal, shots
            )
            if sr > best_sr:
                best_sr, best_label = sr, sequence.label()
        histogram[best_label] = histogram.get(best_label, 0) + 1
        context.device.advance_time(gap_hours * _HOUR_US)
    ranked = sorted(histogram.items(), key=lambda kv: -kv[1])
    rows = [(label, count, count / iterations) for label, count in ranked]
    stability = ranked[0][1] / iterations
    return ExperimentResult(
        experiment_id="fig22",
        title="Distribution of the runtime-best sequence across iterations",
        columns=("sequence", "wins", "fraction"),
        rows=rows,
        notes=[
            f"device={context.device.name} iterations={iterations}"
            f" gap={gap_hours}h shots={shots}",
        ],
        summary=(
            f"The most stable sequence wins {stability:.0%} of iterations"
            f" ({len(ranked)} distinct winners)."
        ),
    )
