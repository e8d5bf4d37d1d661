"""Motivation experiments: Figs. 1(c), 3, and 9.

These establish the paper's problem statement on the simulated device:
the calibration-best native gate is frequently not the gate (or gate
combination) that maximizes application success rate.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..compiler.mapping import Layout
from ..core.policies import noise_adaptive_sequence
from ..core.sequence import NativeGateSequence, enumerate_sequences
from ..device.native_gates import cnot_decomposition
from ..device.topology import Link
from ..circuit.circuit import QuantumCircuit
from ..metrics import spearman_correlation
from ..programs import ghz_n4, ghz_n5, vqe_n4
from .context import ExperimentContext
from .reporting import ExperimentResult

__all__ = [
    "fig1c_microbenchmark",
    "fig3_ghz5_sweep",
    "fig9_program_specific_optimum",
]


def _rx_pi_cnot_circuit(link: Link, native: str) -> QuantumCircuit:
    """The Fig. 1(b) micro-benchmark: RX(pi) on the control, one CNOT."""
    qubit_a, qubit_b = link
    circuit = QuantumCircuit(
        max(link) + 1, name=f"micro_rxpi_{native}"
    )
    circuit.rx(math.pi, qubit_a)
    for gate in cnot_decomposition(native, qubit_a, qubit_b):
        circuit.append(gate)
    circuit.measure(qubit_a)
    circuit.measure(qubit_b)
    return circuit


def fig1c_microbenchmark(
    context: Optional[ExperimentContext] = None,
    shots: int = 2048,
    link_index: int = 0,
) -> ExperimentResult:
    """Fig. 1(c): per-native-gate SR of the RX(pi)+CNOT micro-benchmark.

    The correct output is ``11`` with probability 1. The row marked
    ``noise-adaptive`` is the gate calibration would pick; the paper's
    point is that it often is not the SR-maximizing row.
    """
    context = context or ExperimentContext.create()
    link = context.pick_link(link_index)
    ideal = {"11": 1.0}
    noise_adaptive = context.calibration.best_native_gate(link)
    rows: List[Tuple] = []
    best_gate, best_sr = None, -1.0
    for native in context.device.supported_gates(*link):
        circuit = _rx_pi_cnot_circuit(link, native)
        sr = context.measured_success_rate(circuit, ideal, shots)
        rows.append(
            (
                native.upper(),
                sr,
                context.calibration.two_qubit_fidelity(link, native),
                "yes" if native == noise_adaptive else "",
            )
        )
        if sr > best_sr:
            best_gate, best_sr = native, sr
    gap = "closed" if best_gate == noise_adaptive else "OPEN"
    return ExperimentResult(
        experiment_id="fig1c",
        title="RX(pi)+CNOT micro-benchmark: SR per native gate",
        columns=("native gate", "success rate", "calibrated fid", "noise-adaptive"),
        rows=rows,
        notes=[
            f"device={context.device.name} link={link} shots={shots}",
            f"noise-adaptive pick: {noise_adaptive.upper()};"
            f" runtime best: {best_gate.upper()} (gap {gap})",
        ],
        summary=(
            f"Best gate at runtime is {best_gate.upper()} (SR {best_sr:.3f});"
            f" calibration would pick {noise_adaptive.upper()}."
        ),
    )


def fig3_ghz5_sweep(
    context: Optional[ExperimentContext] = None,
    shots: int = 1024,
) -> ExperimentResult:
    """Fig. 3: GHZ_n5 under all 81 native gate combinations.

    Reports every combination's SR, the noise-adaptive combination's
    rank, and the ratio of the runtime-best SR to the noise-adaptive SR
    (the paper measures 3x on Aspen-11).
    """
    context = context or ExperimentContext.create()
    compiled = context.transpile(ghz_n5())
    ideal = compiled.ideal_distribution()
    options = compiled.gate_options()
    na_seq = noise_adaptive_sequence(compiled.sites, context.calibration, options)

    labels: List[str] = []
    values: List[float] = []
    na_sr = None
    for sequence in enumerate_sequences(compiled.sites, options, "site"):
        circuit = compiled.nativized(sequence, name_suffix="_f3")
        sr = context.measured_success_rate(circuit, ideal, shots)
        labels.append(sequence.label())
        values.append(sr)
        if sequence.gates == na_seq.gates:
            na_sr = sr
    assert na_sr is not None
    best_index = max(range(len(values)), key=values.__getitem__)
    ratio = values[best_index] / max(na_sr, 1e-9)
    ranked = sorted(values, reverse=True)
    rows = [
        ("combinations evaluated", len(values), ""),
        ("noise-adaptive SR", na_sr, na_seq.label()),
        ("runtime-best SR", values[best_index], labels[best_index]),
        ("best / noise-adaptive", ratio, ""),
        ("noise-adaptive rank", ranked.index(na_sr) + 1, f"of {len(values)}"),
    ]
    return ExperimentResult(
        experiment_id="fig3",
        title="GHZ_n5 success rate across all 81 native gate combinations",
        columns=("quantity", "value", "detail"),
        rows=rows,
        series={"success_rates_in_enumeration_order": values},
        notes=[
            f"device={context.device.name} shots={shots}",
            f"links={compiled.links_used()}",
        ],
        summary=(
            f"Runtime-best combination achieves {ratio:.2f}x the"
            " noise-adaptive SR."
        ),
    )


def fig9_program_specific_optimum(
    context: Optional[ExperimentContext] = None,
    shots: int = 1024,
) -> ExperimentResult:
    """Fig. 9: GHZ_n4 vs VQE_n4 on the same qubits, same window.

    Both programs have three CNOTs on the same three links, yet their
    best native gate combinations differ, and the SR orderings of the 27
    combinations correlate only weakly across programs.
    """
    context = context or ExperimentContext.create()
    ghz_compiled = context.transpile(ghz_n4())
    layout = ghz_compiled.routed.initial_layout
    vqe_compiled = context.transpile(vqe_n4(), layout=layout)

    per_program: Dict[str, Dict[str, float]] = {}
    for name, compiled in (("GHZ_n4", ghz_compiled), ("VQE_n4", vqe_compiled)):
        ideal = compiled.ideal_distribution()
        srs: Dict[str, float] = {}
        for sequence in enumerate_sequences(
            compiled.sites, compiled.gate_options(), "link"
        ):
            circuit = compiled.nativized(sequence, name_suffix="_f9")
            srs[sequence.label()] = context.measured_success_rate(
                circuit, ideal, shots
            )
        per_program[name] = srs

    common = sorted(set(per_program["GHZ_n4"]) & set(per_program["VQE_n4"]))
    scc = spearman_correlation(
        [per_program["GHZ_n4"][k] for k in common],
        [per_program["VQE_n4"][k] for k in common],
    )
    rows: List[Tuple] = []
    winners = {}
    for name, srs in per_program.items():
        best = max(srs, key=srs.get)
        winners[name] = best
        rows.append((name, best, srs[best], len(srs)))
    return ExperimentResult(
        experiment_id="fig9",
        title="Optimal native gate combination is program-specific",
        columns=("program", "best combination", "best SR", "combinations"),
        rows=rows,
        series={
            "ghz_srs": [per_program["GHZ_n4"][k] for k in common],
            "vqe_srs": [per_program["VQE_n4"][k] for k in common],
        },
        notes=[
            f"same physical qubits {layout.physical}, same calibration window",
            f"cross-program Spearman correlation of SR orderings: {scc:.3f}",
        ],
        summary=(
            "Best combinations "
            + ("differ" if winners["GHZ_n4"] != winners["VQE_n4"] else "agree")
            + f" across programs (SCC {scc:.2f})."
        ),
    )
