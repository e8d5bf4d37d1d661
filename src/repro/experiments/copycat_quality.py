"""CopyCat fidelity-imitation studies: Figs. 12 and 19.

A CopyCat is useful exactly insofar as the SR *ordering* it induces over
native gate sequences matches the program's. Both studies quantify that
with Spearman's rank correlation across the full sequence space.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..circuit.circuit import QuantumCircuit
from ..compiler.nativization import nativize
from ..core.copycat import build_copycat
from ..core.sequence import enumerate_sequences
from ..metrics import spearman_correlation
from ..programs import linear_solver_n3
from ..sim.statevector import StatevectorSimulator
from .context import ExperimentContext
from .reporting import ExperimentResult

__all__ = ["fig12_replacement_choice", "fig19_copycat_correlation"]


def _fig12_program() -> QuantumCircuit:
    """Paper Fig. 12(a): a U3-prepared qubit driving a CNOT sequence."""
    circuit = QuantumCircuit(4, name="fig12_program")
    # Fixed "random" U3 angles (mostly-diagonal rotation, so Z/S are
    # good Clifford imitations and X is a poor one — the paper's case).
    circuit.u3(0.55, 1.15, 0.75, 0)
    circuit.cnot(0, 1)
    circuit.cnot(1, 2)
    circuit.cnot(2, 3)
    circuit.cnot(1, 2)
    return circuit.measure_all()


def _sequence_srs(
    context: ExperimentContext,
    compiled,
    circuit: QuantumCircuit,
    shots: int,
    exact: bool,
) -> Tuple[List[str], List[float]]:
    """SR of *circuit* (sharing compiled's sites) per sequence."""
    compact, _ = circuit.compacted()
    ideal = StatevectorSimulator().distribution(compact)
    labels: List[str] = []
    values: List[float] = []
    for sequence in enumerate_sequences(
        compiled.sites, compiled.gate_options(), "site"
    ):
        native = nativize(
            circuit,
            sequence.as_site_map(),
            native_gates=context.device.native_gates,
            name_suffix="_ccq",
        )
        if exact:
            sr = context.exact_success_rate(native, ideal)
        else:
            sr = context.measured_success_rate(native, ideal, shots)
        labels.append(sequence.label())
        values.append(sr)
    return labels, values


def fig12_replacement_choice(
    context: Optional[ExperimentContext] = None,
    shots: int = 1024,
    exact: bool = True,
) -> ExperimentResult:
    """Fig. 12: Clifford replacement quality decides CopyCat usefulness.

    Builds three fixed-replacement CopyCats (X, Z, S) plus ANGEL's
    operator-norm nearest-Clifford CopyCat of the Fig. 12(a) program,
    sweeps all 81 sequences, and reports each CopyCat's Spearman
    correlation with the input program. The paper measures SCC ~0.87-0.89
    for Z/S and ~0.13 for X.
    """
    context = context or ExperimentContext.create()
    program = _fig12_program()
    compiled = context.transpile(program)
    routed = compiled.scheduled

    _, program_srs = _sequence_srs(context, compiled, routed, shots, exact)

    rows: List[Tuple] = []
    series: Dict[str, List[float]] = {"program": program_srs}
    variants: List[Tuple[str, dict]] = [
        ("X CopyCat", {"fixed_replacement": "x"}),
        ("Z CopyCat", {"fixed_replacement": "z"}),
        ("S CopyCat", {"fixed_replacement": "s"}),
        ("nearest-Clifford CopyCat", {"max_non_clifford": 0}),
    ]
    for name, kwargs in variants:
        copycat = build_copycat(routed, **kwargs)
        _, copycat_srs = _sequence_srs(
            context, compiled, copycat.circuit, shots, exact
        )
        scc = spearman_correlation(program_srs, copycat_srs)
        rows.append(
            (name, scc, copycat.total_replacement_distance)
        )
        series[name] = copycat_srs
    return ExperimentResult(
        experiment_id="fig12",
        title="CopyCat Clifford-replacement choice vs imitation quality",
        columns=("copycat variant", "SCC vs program", "replacement distance"),
        rows=rows,
        series=series,
        notes=[
            f"device={context.device.name}; 81 sequences per variant; "
            + ("exact distributions" if exact else f"shots={shots}"),
            "a replacement far from the original unitary (X here) yields"
            " a CopyCat whose SR ordering no longer tracks the program",
        ],
        summary=(
            "Accurate Clifford replacements (Z/S/nearest) imitate the"
            " program's SR ordering; inaccurate ones (X) do not."
        ),
    )


def fig19_copycat_correlation(
    context: Optional[ExperimentContext] = None,
    shots: int = 1024,
    exact: bool = False,
) -> ExperimentResult:
    """Fig. 19: program vs CopyCat SR across all sequences (lin_sol_n3).

    The linear-solver benchmark has 4 CNOTs -> 81 sequences. Its
    default (budgeted nearest-Clifford) CopyCat is swept over the same
    space; a high Spearman correlation is what licenses learning on the
    CopyCat and transferring to the program (paper Step 5).
    """
    context = context or ExperimentContext.create()
    program = linear_solver_n3()
    compiled = context.transpile(program)
    routed = compiled.scheduled

    _, program_srs = _sequence_srs(context, compiled, routed, shots, exact)
    copycat = build_copycat(routed)
    _, copycat_srs = _sequence_srs(
        context, compiled, copycat.circuit, shots, exact
    )
    scc = spearman_correlation(program_srs, copycat_srs)

    best_program = max(range(len(program_srs)), key=program_srs.__getitem__)
    best_copycat = max(range(len(copycat_srs)), key=copycat_srs.__getitem__)
    program_rank_of_copycat_best = (
        sorted(program_srs, reverse=True).index(program_srs[best_copycat]) + 1
    )
    rows = [
        ("sequences evaluated", len(program_srs), ""),
        ("Spearman correlation", scc, "(paper: strong, ~0.9)"),
        ("program-best index", best_program, ""),
        ("copycat-best index", best_copycat, ""),
        (
            "program rank of copycat-best",
            program_rank_of_copycat_best,
            f"of {len(program_srs)}",
        ),
    ]
    return ExperimentResult(
        experiment_id="fig19",
        title="Program vs CopyCat success rate across all 81 sequences",
        columns=("quantity", "value", "detail"),
        rows=rows,
        series={"program": program_srs, "copycat": copycat_srs},
        notes=[
            f"benchmark=lin_sol_n3 device={context.device.name} "
            + ("exact distributions" if exact else f"shots={shots}"),
            f"retained non-Cliffords in CopyCat: "
            f"{len(copycat.retained_non_clifford)}",
        ],
        summary=(
            f"CopyCat SR ordering correlates with the program's"
            f" (SCC {scc:.2f}); the copycat-best sequence ranks"
            f" {program_rank_of_copycat_best}/{len(program_srs)} on the"
            " program."
        ),
    )
