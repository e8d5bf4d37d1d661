"""The ANGEL framework facade (paper Section IV).

:class:`Angel` wires the pieces together, step for step with Fig. 11:

1. build a CopyCat of the scheduled-and-routed program;
2. initialize the reference sequence noise-adaptively from calibration;
3. generate per-link mass-replacement candidates;
4. probe each candidate by nativizing the *CopyCat* under it and running
   it on the device, continuously updating the reference;
5. nativize the *input program* with the learned sequence.

Probing runs ``1 + 2L`` CopyCats for a program using ``L`` links with all
three natives available (Table II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import Gate
from ..compiler.nativization import nativize, single_qubit_native
from ..compiler.optimize import cleanup_native_circuit
from ..compiler.passes import CompiledProgram, transpile
from ..device.calibration import CalibrationData
from ..device.device import RigettiAspenDevice
from ..device.native_gates import NativeGateSet, cnot_decomposition
from ..device.topology import Link
from ..exceptions import CompilationError, SearchError
from ..exec import Job, get_executor
from ..metrics import success_rate_from_counts
from ..obs import runtime as obs
from .copycat import DEFAULT_NON_CLIFFORD_BUDGET, CopyCat, build_copycat
from .policies import noise_adaptive_sequence, random_sequence
from .search import ProbeBatch, SearchTrace, localized_search_plan
from .sequence import NativeGateSequence

__all__ = [
    "AngelConfig",
    "AngelResult",
    "Angel",
    "AngelProbePlan",
    "CopycatKit",
    "copycat_kit",
]


@dataclass(frozen=True)
class AngelConfig:
    """Tunables of the ANGEL framework.

    Attributes:
        probe_shots: Shots per CopyCat probe execution.
        max_non_clifford: Initial-layer non-Clifford retention budget.
        exclude_hadamard_like: Exclude H-like Clifford replacements.
        reference: ``"noise_adaptive"`` (default, paper Step 2) or
            ``"random"`` (the Fig. 20 ablation).
        link_order: ``"program"`` (default) or ``"random"`` — candidate
            generation order (Step 3 notes program order keeps the
            design simple; the ablation bench explores the alternative).
        max_passes: Link sweeps to run; 1 is the paper's algorithm,
            more passes extend the search (Section VI-E limitation 1).
        seed: Seed for probe sampling and any randomized choices.
    """

    probe_shots: int = 1024
    max_non_clifford: int = DEFAULT_NON_CLIFFORD_BUDGET
    exclude_hadamard_like: bool = True
    reference: str = "noise_adaptive"
    link_order: str = "program"
    max_passes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.probe_shots < 1:
            raise SearchError("probe_shots must be positive")
        if self.max_passes < 1:
            raise SearchError("max_passes must be at least 1")
        if self.reference not in ("noise_adaptive", "random"):
            raise SearchError(f"unknown reference policy {self.reference!r}")
        if self.link_order not in ("program", "random"):
            raise SearchError(f"unknown link order {self.link_order!r}")


@dataclass
class AngelResult:
    """Everything ANGEL learned about one program.

    Attributes:
        sequence: The learned (optimal) native gate sequence.
        reference_sequence: Where the search started.
        copycat: The probe circuit used.
        copycat_ideal: The CopyCat's classically computed distribution.
        trace: Full probe audit trail.
        copycats_executed: Number of device jobs spent probing
            (``1 + 2L`` with all gates available).
        degraded_links: Links whose probe jobs failed permanently (a
            flaky remote backend) and therefore kept the
            calibration-fidelity gate choice; empty on a healthy
            backend.

    ``copycat`` and ``copycat_ideal`` are read-only: the compile
    service builds them once per program and chip day, so the outcomes
    of every request for that program share the same objects.
    """

    sequence: NativeGateSequence
    reference_sequence: NativeGateSequence
    copycat: CopyCat
    copycat_ideal: Dict[str, float]
    trace: SearchTrace
    copycats_executed: int
    degraded_links: Tuple[Link, ...] = ()


class Angel:
    """Application-specific Native Gate Selection.

    Args:
        device: The NISQ device probes and final programs run on.
        calibration: Vendor calibration data (reference initialization;
            possibly stale — that is the point).
        config: Framework tunables.

    Probe jobs go through the device's executor
    (:func:`~repro.exec.get_executor`): its local executor, which
    reproduces the paper's one-probe-at-a-time semantics bit-for-bit, or
    the one a remote :class:`~repro.experiments.context.ExperimentContext`
    bound to it.
    """

    def __init__(
        self,
        device: RigettiAspenDevice,
        calibration: CalibrationData,
        config: Optional[AngelConfig] = None,
    ) -> None:
        self.device = device
        self.calibration = calibration
        self.config = config or AngelConfig()
        self.executor = get_executor(device)
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    def select(self, compiled: CompiledProgram) -> AngelResult:
        """Learn the optimal native gate sequence for a compiled program.

        Runs Steps 1-4 of Fig. 11. The input program itself is *not*
        executed — only its CopyCat is.
        """
        if compiled.num_cnot_sites == 0:
            raise SearchError(
                "program has no CNOT sites; nothing to select"
            )
        tracer = obs.active_tracer()
        select_span = (
            tracer.span(
                "angel.select",
                program=compiled.scheduled.name,
                sites=compiled.num_cnot_sites,
                links=len(compiled.links_used()),
                probe_shots=self.config.probe_shots,
            )
            if tracer
            else obs.NULL_SPAN
        )
        with select_span:
            return self._select(compiled, select_span)

    def _select(
        self, compiled: CompiledProgram, select_span
    ) -> AngelResult:
        plan = self.plan(compiled, observe=True)
        while not plan.done:
            # allow_failures: a probe job a resilient backend gave up on
            # comes back as None and degrades that link's comparison
            # instead of aborting the whole search. The budget is spent
            # either way, preserving the 1 + 2L accounting.
            plan.deliver(
                self.executor.submit_batch(
                    plan.next_jobs(), allow_failures=True
                )
            )
        plan.record_outcome(self.executor, span=select_span)
        return plan.result()

    def plan(
        self,
        compiled: CompiledProgram,
        observe: bool = False,
        kit: Optional["CopycatKit"] = None,
    ) -> "AngelProbePlan":
        """The selection as a stream of schedulable probe batches.

        Where :meth:`select` runs Steps 1-4 inline, :meth:`plan` hands
        the same computation to an external driver: call
        :meth:`AngelProbePlan.next_jobs`, execute the jobs through any
        executor, :meth:`~AngelProbePlan.deliver` the results, repeat
        until :attr:`~AngelProbePlan.done`. Driving a plan to completion
        against the same executor is bit-identical to :meth:`select` —
        ``select`` itself is implemented as exactly that loop.

        ``observe`` defaults to off: schedulers interleaving plans from
        many requests must not nest one request's search spans inside
        another's batch spans. ``kit`` is the program's
        :func:`copycat_kit` when the caller already holds one (the
        compile service keeps one per program and chip day); otherwise
        the plan builds its own.
        """
        if kit is None:
            kit = copycat_kit(compiled, self.config)
        return AngelProbePlan(self, compiled, kit, observe=observe)

    def compile_and_select(
        self, circuit: QuantumCircuit
    ) -> Tuple[CompiledProgram, AngelResult]:
        """Convenience: transpile then select in one call."""
        compiled = transpile(circuit, self.device, self.calibration)
        return compiled, self.select(compiled)

    def nativize(
        self, compiled: CompiledProgram, result: AngelResult
    ) -> QuantumCircuit:
        """Step 5: nativize the input program with the learned sequence."""
        return compiled.nativized(result.sequence, name_suffix="_angel")

    # ------------------------------------------------------------------
    def expected_probe_count(self, compiled: CompiledProgram) -> int:
        """The ``1 + sum(|options|-1)`` probe budget (Table II)."""
        options = compiled.gate_options()
        return 1 + sum(
            len(options[link]) - 1 for link in compiled.links_used()
        )

    def _initial_reference(
        self,
        compiled: CompiledProgram,
        gate_options: Mapping[Link, Sequence[str]],
    ) -> NativeGateSequence:
        if self.config.reference == "random":
            return random_sequence(compiled.sites, gate_options, self._rng)
        return noise_adaptive_sequence(
            compiled.sites, self.calibration, gate_options
        )

    def _link_order(
        self, reference: NativeGateSequence
    ) -> Optional[List[Link]]:
        if self.config.link_order == "random":
            links = reference.links_used()
            order = list(links)
            self._rng.shuffle(order)
            return order
        return None  # program order (default inside the search)


class AngelProbePlan:
    """One selection's probe work, exposed as schedulable units.

    Wraps :func:`~repro.core.search.localized_search_plan` with the
    ANGEL-specific probe construction: each yielded
    :class:`~repro.core.search.ProbeBatch` is turned into CopyCat probe
    :class:`~repro.exec.Job` s (seeds drawn from the Angel's generator in
    candidate order, so the sampling streams match the inline
    one-probe-at-a-time loop exactly), and delivered counts are scored
    against the CopyCat's ideal distribution before resuming the search.

    Drivers alternate :meth:`next_jobs` / :meth:`deliver` until
    :attr:`done`, then read :meth:`result`. The batch sequence, RNG
    draws, and continuous-update semantics are identical to
    :meth:`Angel.select`, which is itself implemented over this class.
    ``kit`` is the program's :func:`copycat_kit`; the plan only reads it.
    """

    def __init__(
        self,
        angel: Angel,
        compiled: CompiledProgram,
        kit: "CopycatKit",
        observe: bool = True,
    ) -> None:
        config = angel.config
        self.compiled = compiled
        self.copycat = kit.copycat
        self.copycat_ideal = kit.ideal
        self._nativizer = kit.nativizer
        gate_options = compiled.gate_options()
        self.reference = angel._initial_reference(compiled, gate_options)
        link_order = angel._link_order(self.reference)
        self._probe_shots = config.probe_shots
        self._rng = angel._rng
        self._plan = localized_search_plan(
            self.reference,
            gate_options,
            link_order=link_order,
            max_passes=config.max_passes,
            observe=observe,
        )
        self.probes_run = 0
        self._batch: Optional[ProbeBatch] = None
        self._jobs: Optional[List[Job]] = None
        self._result: Optional[AngelResult] = None
        self._step(None)

    # ------------------------------------------------------------------
    def _step(self, rates: Optional[List[Optional[float]]]) -> None:
        self._jobs = None
        try:
            self._batch = self._plan.send(rates)
        except StopIteration as stop:
            best, trace = stop.value
            self._batch = None
            self._result = AngelResult(
                sequence=best,
                reference_sequence=self.reference,
                copycat=self.copycat,
                copycat_ideal=self.copycat_ideal,
                trace=trace,
                copycats_executed=self.probes_run,
                degraded_links=tuple(trace.degraded_links),
            )

    @property
    def done(self) -> bool:
        """Whether the search has finished (no more batches to run)."""
        return self._batch is None

    @property
    def current_batch(self) -> Optional[ProbeBatch]:
        """The batch awaiting execution (``None`` once done)."""
        return self._batch

    def next_jobs(self) -> List[Job]:
        """The probe jobs of the pending batch.

        Jobs (and their seeds) are built once per batch, on first call —
        calling this again before :meth:`deliver` returns the same jobs,
        so a scheduler can inspect the batch size without perturbing the
        RNG stream.
        """
        if self._batch is None:
            raise SearchError("probe plan is complete; no more batches")
        if self._jobs is None:
            self._jobs = [
                Job(
                    self._probe_circuit(sequence, offset),
                    self._probe_shots,
                    seed=int(self._rng.integers(2**31)),
                    tag="probe",
                )
                for offset, sequence in enumerate(self._batch.sequences)
            ]
        return list(self._jobs)

    def _probe_circuit(
        self, sequence: NativeGateSequence, offset: int
    ) -> QuantumCircuit:
        circuit = self._nativizer.nativize(
            sequence, self.probes_run + offset
        )
        if self.compiled.optimization_level >= 2:
            # Same native cleanup the final executable gets: probes
            # shrink by the same rules, which is where the level-2
            # compile wall-time win comes from.
            circuit = cleanup_native_circuit(circuit)
        return circuit

    def deliver(
        self, results: Sequence[Optional["JobResult"]]
    ) -> None:
        """Feed one batch's results back; advances to the next batch.

        A ``None`` slot is a probe job that failed permanently; it scores
        as a failed probe and degrades that link's comparison instead of
        aborting the search (the 1 + 2L budget is spent either way).
        """
        jobs = self.next_jobs()
        if len(results) != len(jobs):
            raise SearchError(
                f"{len(results)} results delivered for "
                f"{len(jobs)} probe jobs"
            )
        self.probes_run += len(jobs)
        self._step(
            [
                None
                if result is None
                else success_rate_from_counts(
                    self.copycat_ideal, result.counts
                )
                for result in results
            ]
        )

    def result(self) -> AngelResult:
        """The finished :class:`AngelResult` (raises until :attr:`done`)."""
        if self._result is None:
            raise SearchError("probe plan is not complete yet")
        return self._result

    def record_outcome(self, executor=None, span=None) -> None:
        """Post-selection accounting, identical to :meth:`Angel.select`:
        degraded-link fallbacks on the executor ledger, span attributes,
        and the ``angel.*`` registry counters."""
        result = self.result()
        degraded = result.degraded_links
        if executor is not None and degraded:
            executor.stats.fallbacks += len(degraded)
        if span is not None:
            span.set(
                probes_run=self.probes_run,
                updates=result.trace.num_updates,
                degraded=len(degraded),
            )
        registry = obs.active_registry()
        if registry is not None:
            registry.counter("angel.selections").add(1)
            registry.counter("angel.probes").add(self.probes_run)
            registry.counter("angel.updates").add(result.trace.num_updates)


@dataclass(frozen=True)
class CopycatKit:
    """What probing a compiled program needs and no probe changes.

    Step 1 of Fig. 11 for one program: its CopyCat, the CopyCat's ideal
    distribution (the score every probe is measured against) and the
    candidate-circuit factory. A pure function of the compiled program
    and the config's CopyCat settings, built by :func:`copycat_kit`, and
    read-only once built: the compile service shares one kit between
    every request for a program on one chip day. The nativizer is
    derived from the CopyCat, so it takes no part in equality.
    """

    copycat: CopyCat
    ideal: Dict[str, float]
    nativizer: "_CopycatNativizer" = field(compare=False)


def copycat_kit(compiled: CompiledProgram, config: AngelConfig) -> CopycatKit:
    """Build the :class:`CopycatKit` of a compiled program."""
    if compiled.num_cnot_sites == 0:
        raise SearchError("program has no CNOT sites; nothing to select")
    copycat = build_copycat(
        compiled.scheduled,
        max_non_clifford=config.max_non_clifford,
        exclude_hadamard_like=config.exclude_hadamard_like,
    )
    # The CopyCat circuit is fixed for the whole search; only the
    # native gate at each CNOT site varies between candidates. The
    # nativizer precomputes everything else (1q rewrites, barriers,
    # measurements, pass-throughs) once instead of once per probe.
    return CopycatKit(
        copycat,
        copycat.ideal_distribution(),
        _CopycatNativizer(copycat, compiled.device.native_gates),
    )


class _CopycatNativizer:
    """Candidate-circuit factory with the sequence-independent work hoisted.

    :func:`~repro.compiler.nativization.nativize` redoes the single-qubit
    rewrites, barrier/measurement copies, and pass-through checks for
    every probe even though only the per-site two-qubit decompositions
    change between candidates. The CopyCat shares the program's CNOT
    skeleton, so its site indices coincide with the compiled program's
    and any candidate sequence applies; this class walks the CopyCat once
    into a segment list — fixed gates interleaved with CNOT-site slots —
    and each probe only stitches in the sites' ``cnot_decomposition``.

    Output is gate-for-gate identical to calling :func:`nativize` with
    ``name_suffix=f"_probe{n}"`` (pinned by ``tests/test_exec.py``).
    """

    _BARRIER = object()

    def __init__(self, copycat: CopyCat, native_gates: NativeGateSet) -> None:
        circuit = copycat.circuit
        self._num_qubits = circuit.num_qubits
        self._base_name = circuit.name
        # Each segment is either _BARRIER, a tuple of pre-nativized fixed
        # gates, or a CNOT site as (site_index, control, target).
        segments: List[object] = []
        site_index = 0

        def fixed(gates: Sequence[Gate]) -> None:
            if segments and isinstance(segments[-1], tuple) and (
                segments[-1] and isinstance(segments[-1][0], Gate)
            ):
                segments[-1] = segments[-1] + tuple(gates)
            else:
                segments.append(tuple(gates))

        for gate in circuit:
            if gate.is_barrier:
                segments.append(self._BARRIER)
            elif gate.is_measurement:
                fixed([gate])
            elif gate.num_qubits == 1:
                fixed(single_qubit_native(gate))
            elif gate.name == "cnot":
                segments.append((site_index, gate.qubits[0], gate.qubits[1]))
                site_index += 1
            elif gate.name == "swap":
                a, b = gate.qubits
                for control, target in ((a, b), (b, a), (a, b)):
                    segments.append((site_index, control, target))
                    site_index += 1
            elif gate.name == "iswap":
                fixed([Gate("xy", gate.qubits, (math.pi,))])
            elif gate.name in native_gates.two_qubit:
                fixed([gate])
            else:
                raise CompilationError(
                    f"no nativization rule for 2q gate {gate.name!r}"
                )
        self._segments = segments
        self.num_sites = site_index

    def nativize(
        self, sequence: NativeGateSequence, probe_number: int
    ) -> QuantumCircuit:
        """Build the candidate probe circuit for one sequence."""
        site_gates = sequence.as_site_map()
        native = QuantumCircuit(
            self._num_qubits,
            name=f"{self._base_name}_probe{probe_number}",
        )
        for segment in self._segments:
            if segment is self._BARRIER:
                native.barrier()
            elif segment and isinstance(segment[0], int):
                index, control, target = segment
                try:
                    assigned = site_gates[index]
                except KeyError as exc:
                    raise CompilationError(
                        f"no native gate assigned to CNOT site {index}"
                    ) from exc
                for rewritten in cnot_decomposition(
                    assigned, control, target
                ):
                    native.append(rewritten)
            else:
                for gate in segment:
                    native.append(gate)
        return native
