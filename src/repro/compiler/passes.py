"""The compilation pipeline: layout -> routing -> scheduling -> sites.

:func:`transpile` performs everything *except* choosing native gates,
yielding a :class:`CompiledProgram` — a routed, scheduled physical
circuit plus its CNOT sites. Native-gate selection policies (baseline
noise-adaptive, ANGEL, runtime-best) each produce a site assignment, and
:meth:`CompiledProgram.nativized` turns any assignment into an
executable. This mirrors the paper's design point that ANGEL "only
replaces the native gates in the scheduled and routed program" and hence
adds little compile time (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..circuit.circuit import QuantumCircuit
from ..device.calibration import CalibrationData
from ..device.device import RigettiAspenDevice
from ..device.topology import Link
from ..exceptions import CompilationError
from ..obs import runtime as obs
from ..sim.statevector import StatevectorSimulator
from .mapping import Layout, noise_adaptive_layout, trivial_layout
from .nativization import CnotSite, extract_cnot_sites, nativize
from .optimize import (
    OptimizationReport,
    cleanup_native_circuit,
    optimize_circuit,
)
from .routing import RoutedCircuit, route_circuit
from .scheduling import asap_schedule

__all__ = ["CompiledProgram", "transpile"]


@dataclass
class CompiledProgram:
    """A program compiled up to (but not including) native gate choice.

    Attributes:
        source: The logical input circuit.
        routed: Routing output (physical circuit, layouts, swap count).
        scheduled: The routed circuit in ASAP moment order; nativization
            and CopyCat construction operate on this.
        sites: CNOT sites of the scheduled circuit, program order.
        device: The target device (used for gate availability checks).
        optimization_level: The pre-routing optimization level the
            program was compiled at (0 = untouched pipeline).
        opt_report: What the optimization passes did, when they ran.
    """

    source: QuantumCircuit
    routed: RoutedCircuit
    scheduled: QuantumCircuit
    sites: List[CnotSite]
    device: RigettiAspenDevice
    optimization_level: int = 0
    opt_report: Optional[OptimizationReport] = None

    @property
    def num_cnot_sites(self) -> int:
        return len(self.sites)

    def links_used(self) -> List[Link]:
        """Distinct links the program's CNOTs touch, program order."""
        ordered: List[Link] = []
        seen: set = set()
        for site in self.sites:
            link = site.link
            if link not in seen:
                seen.add(link)
                ordered.append(link)
        return ordered

    def gate_options(self) -> Dict[Link, Tuple[str, ...]]:
        """Native gates the device supports on each used link."""
        options: Dict[Link, Tuple[str, ...]] = {}
        for link in self.links_used():
            supported = self.device.supported_gates(*link)
            if not supported:
                raise CompilationError(
                    f"device supports no native gate on link {link}"
                )
            options[link] = supported
        return options

    def nativized(
        self,
        site_gates: Union[Mapping[int, str], "object"],
        name_suffix: str = "",
    ) -> QuantumCircuit:
        """Nativize under a site->gate map or a NativeGateSequence."""
        if hasattr(site_gates, "as_site_map"):
            site_gates = site_gates.as_site_map()
        native = nativize(
            self.scheduled,
            site_gates,
            native_gates=self.device.native_gates,
            name_suffix=name_suffix,
        )
        if self.optimization_level >= 2:
            native = cleanup_native_circuit(native)
        return native

    def ideal_distribution(self) -> Dict[str, float]:
        """Noise-free output distribution of the *logical* program.

        Bit order matches the device's output bit order by construction:
        routing re-emits measurements in logical order.
        """
        return StatevectorSimulator().distribution(self.source)


def transpile(
    circuit: QuantumCircuit,
    device: RigettiAspenDevice,
    calibration: Optional[CalibrationData] = None,
    layout: Optional[Layout] = None,
    optimization_level: int = 0,
) -> CompiledProgram:
    """Map, route, and schedule *circuit* for *device*.

    Args:
        circuit: Logical program (measurements optional; all qubits are
            measured if none are explicit).
        device: Target device.
        calibration: If provided, layout and routing are noise-adaptive
            (best-calibrated region and links); otherwise structural.
        layout: Overrides layout selection entirely (used by experiments
            that must pin programs to specific physical qubits).
        optimization_level: Pre-routing optimization (0 = off, the
            bit-identical default; 1 = cancellation/merging/fusion;
            2 = level 1 plus two-qubit rewrites and native cleanup).
            Runs *before* layout so the router sees — and the probe
            budget pays for — only the links the optimized circuit
            still needs.

    Returns:
        A :class:`CompiledProgram` awaiting native gate selection.
    """
    tracer = obs.active_tracer()
    span = (
        tracer.span(
            "compiler.transpile",
            program=circuit.name,
            level=optimization_level,
        )
        if tracer
        else obs.NULL_SPAN
    )
    with span:
        opt_report: Optional[OptimizationReport] = None
        if optimization_level:
            opt_span = (
                tracer.span(
                    "opt.run",
                    program=circuit.name,
                    level=optimization_level,
                )
                if tracer
                else obs.NULL_SPAN
            )
            with opt_span:
                circuit_to_route, opt_report = optimize_circuit(
                    circuit, optimization_level
                )
                if tracer:
                    opt_span.set(
                        gates_removed=opt_report.gates_removed,
                        links_removed=opt_report.links_removed,
                    )
        else:
            circuit_to_route = circuit
        if layout is None:
            if calibration is not None:
                layout = noise_adaptive_layout(
                    circuit_to_route, device, calibration
                )
            else:
                layout = trivial_layout(circuit_to_route, device.topology)
        routed = route_circuit(
            circuit_to_route, device.topology, layout, calibration=calibration
        )
        scheduled = asap_schedule(routed.circuit)
        sites = extract_cnot_sites(scheduled)
        compiled = CompiledProgram(
            source=circuit,
            routed=routed,
            scheduled=scheduled,
            sites=sites,
            device=device,
            optimization_level=optimization_level,
            opt_report=opt_report,
        )
        if tracer:
            span.set(
                cnot_sites=compiled.num_cnot_sites,
                links_used=len(compiled.links_used()),
                swaps=routed.swap_count,
            )
    compiled.gate_options()  # fail fast if a used link supports nothing
    return compiled
