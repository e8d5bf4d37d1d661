"""Native gate selection policies: the baseline and the oracle.

* :func:`noise_adaptive_sequence` — the paper's baseline: each CNOT uses
  the native gate with the highest *calibrated* fidelity on its link
  (footnote 1: the Murali noise-adaptive strategy extended to
  nativization). Its quality is bounded by the calibration data's
  accuracy, which is exactly the gap ANGEL closes.
* :func:`random_sequence` — the random reference of the Fig. 20 ablation.
* :func:`runtime_best` — the oracle: execute *every* sequence of the
  actual program on the device and keep the best. Exponentially many
  probes (Table II's "Exhaustive Search" column); used to upper-bound
  ANGEL in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..compiler.nativization import CnotSite
from ..compiler.passes import CompiledProgram
from ..device.calibration import CalibrationData
from ..device.device import RigettiAspenDevice
from ..device.topology import Link
from ..exceptions import SearchError
from ..exec import Job, get_executor
from ..metrics import success_rate_from_counts
from .sequence import NativeGateSequence, enumerate_sequences

__all__ = [
    "noise_adaptive_sequence",
    "random_sequence",
    "SequenceEvaluation",
    "runtime_best",
]


def noise_adaptive_sequence(
    sites: Sequence[CnotSite],
    calibration: CalibrationData,
    gate_options: Mapping[Link, Sequence[str]],
) -> NativeGateSequence:
    """Per-link best-calibrated-fidelity selection (baseline policy).

    All sites on a link get the same gate because the choice depends only
    on the link's calibration records, so the result is link-uniform —
    matching ANGEL's search granularity and making it a valid reference
    sequence.
    """
    link_gates: Dict[Link, str] = {}
    for site in sites:
        if site.link in link_gates:
            continue
        options = list(gate_options[site.link])
        if not options:
            raise SearchError(f"no native gates on link {site.link}")
        calibrated = [
            g
            for g in options
            if g in calibration.gates_calibrated_on(site.link)
        ]
        pool = calibrated or options
        link_gates[site.link] = max(
            pool,
            key=lambda g: (
                calibration.two_qubit_fidelity(site.link, g)
                if g in calibrated
                else 0.0,
                -options.index(g),
            ),
        )
    return NativeGateSequence.from_link_gates(tuple(sites), link_gates)


def random_sequence(
    sites: Sequence[CnotSite],
    gate_options: Mapping[Link, Sequence[str]],
    rng: np.random.Generator,
    link_uniform: bool = True,
) -> NativeGateSequence:
    """A uniformly random sequence (Fig. 20's random reference).

    With *link_uniform* (default) one gate is drawn per link, keeping the
    sequence in the same family ANGEL's mass replacement explores.
    """
    sites = tuple(sites)
    if link_uniform:
        link_gates: Dict[Link, str] = {}
        for site in sites:
            if site.link not in link_gates:
                options = tuple(gate_options[site.link])
                link_gates[site.link] = options[
                    int(rng.integers(len(options)))
                ]
        return NativeGateSequence.from_link_gates(sites, link_gates)
    gates = tuple(
        tuple(gate_options[s.link])[
            int(rng.integers(len(gate_options[s.link])))
        ]
        for s in sites
    )
    return NativeGateSequence(sites, gates)


@dataclass(frozen=True)
class SequenceEvaluation:
    """One on-device evaluation of one sequence."""

    sequence: NativeGateSequence
    success_rate: float


def runtime_best(
    compiled: CompiledProgram,
    shots: int = 1024,
    granularity: str = "site",
    ideal: Optional[Dict[str, float]] = None,
    seed: Optional[int] = None,
) -> Tuple[SequenceEvaluation, List[SequenceEvaluation]]:
    """Exhaustively execute every sequence of the real program.

    This is the paper's "Runtime Best" policy: it requires knowing the
    program's correct output (we have it from the ideal simulator) and
    ``prod |options|`` device jobs, so it exists purely as an oracle to
    measure how much of the attainable gap ANGEL closes. The jobs go
    through the device's executor (:func:`~repro.exec.get_executor`).

    Returns ``(best, all_evaluations)`` in enumeration order.
    """
    if ideal is None:
        ideal = compiled.ideal_distribution()
    options = compiled.gate_options()
    executor = get_executor(compiled.device)
    evaluations: List[SequenceEvaluation] = []
    best: Optional[SequenceEvaluation] = None
    for number, sequence in enumerate(
        enumerate_sequences(compiled.sites, options, granularity=granularity)
    ):
        circuit = compiled.nativized(sequence, name_suffix=f"_rb{number}")
        result = executor.submit(
            Job(
                circuit,
                shots,
                seed=None if seed is None else seed + number,
                tag="enumerate",
            )
        )
        evaluation = SequenceEvaluation(
            sequence=sequence,
            success_rate=success_rate_from_counts(ideal, result.counts),
        )
        evaluations.append(evaluation)
        if best is None or evaluation.success_rate > best.success_rate:
            best = evaluation
    if best is None:
        raise SearchError("program has no CNOT sites to enumerate")
    return best, evaluations
