"""Pre-search optimization pipeline: correctness and plumbing.

Every pass must preserve the circuit unitary up to global phase — the
property sweep checks each pass alone and the full level-1/level-2
pipelines on 50 seeded random circuits apiece (the
``tests/test_differential.py`` discipline). Targeted cases pin the
individual rewrite rules, the report/obs plumbing, the native-circuit
cleanup's distribution-exactness, and the transpile/context integration
(level 0 bit-identical, level 2 probe-budget reduction).
"""

import math

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_circuit
from repro.compiler import transpile
from repro.compiler.optimize import (
    OPTIMIZATION_LEVELS,
    _rebuild,
    CancelInversesPass,
    Fuse1qRunsPass,
    MergeRotationsPass,
    PassManager,
    TwoQubitRewritePass,
    cleanup_native_circuit,
    optimize_circuit,
)
from repro.core.sequence import NativeGateSequence
from repro.device.presets import small_test_device
from repro.exceptions import CompilationError
from repro.obs import MetricsRegistry, Tracer, observed
from repro.sim.statevector import StatevectorSimulator
from tests.oracle import differential_seeds


def _assert_same_unitary(original, optimized, atol=1e-7):
    """Unitaries agree up to global phase."""
    left = original.unitary()
    right = optimized.unitary()
    dim = left.shape[0]
    overlap = abs(np.trace(left.conj().T @ right)) / dim
    assert overlap == pytest.approx(1.0, abs=atol), (
        f"unitary changed (overlap {overlap})\n"
        f"before: {original.to_text()}\nafter: {optimized.to_text()}"
    )


def _random_case(seed):
    rng = np.random.default_rng(7000 + seed)
    num_qubits = int(rng.integers(2, 5))
    depth = int(rng.integers(8, 30))
    return random_circuit(num_qubits, depth, rng)


_PASSES = [
    CancelInversesPass(),
    MergeRotationsPass(),
    Fuse1qRunsPass(),
    TwoQubitRewritePass(),
]


@pytest.mark.parametrize("opt_pass", _PASSES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", differential_seeds(range(50)))
def test_each_pass_preserves_unitary(opt_pass, seed):
    """Property sweep: every pass alone, 50 seeded random circuits."""
    circuit = _random_case(seed)
    optimized = opt_pass.run(circuit)
    assert len(optimized) <= len(circuit)
    _assert_same_unitary(circuit, optimized)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("seed", differential_seeds(range(50)))
def test_pipeline_preserves_unitary(level, seed):
    """Full fixpoint pipelines at levels 1 and 2."""
    circuit = _random_case(seed)
    optimized, report = optimize_circuit(circuit, level)
    assert len(optimized) <= len(circuit)
    assert report.gates_after <= report.gates_before
    _assert_same_unitary(circuit, optimized)


def test_level_zero_returns_circuit_unchanged():
    circuit = _random_case(0)
    optimized, report = optimize_circuit(circuit, 0)
    assert optimized is circuit
    assert report.gates_removed == 0
    assert report.iterations == 0


def test_invalid_level_rejected():
    with pytest.raises(CompilationError):
        optimize_circuit(QuantumCircuit(1), 3)
    assert OPTIMIZATION_LEVELS == (0, 1, 2)


# ---------------------------------------------------------------- rules


def test_cancel_adjacent_self_inverse_pairs():
    circuit = QuantumCircuit(2)
    circuit.cnot(0, 1).cnot(0, 1).h(0).h(0).x(1).x(1)
    assert len(CancelInversesPass().run(circuit)) == 0


def test_cancel_inverse_name_pairs():
    circuit = QuantumCircuit(1)
    circuit.s(0).sdg(0).t(0).tdg(0)
    assert len(CancelInversesPass().run(circuit)) == 0


def test_cancel_through_commuting_gates():
    """cx(0,1) cancels across a disjoint cx(2,3) and an rz on its
    control; a gate on its target blocks it."""
    circuit = QuantumCircuit(4)
    circuit.cnot(0, 1).cnot(2, 3).rz(0.7, 0).cnot(0, 1)
    optimized = CancelInversesPass().run(circuit)
    assert [g.name for g in optimized] == ["cnot", "rz"]
    blocked = QuantumCircuit(2)
    blocked.cnot(0, 1).h(1).cnot(0, 1)
    assert len(CancelInversesPass().run(blocked)) == 3


def test_cancel_blocked_by_barrier_and_measure():
    circuit = QuantumCircuit(2)
    circuit.cnot(0, 1).barrier().cnot(0, 1)
    assert sum(1 for g in CancelInversesPass().run(circuit).gates()) == 2
    measured = QuantumCircuit(2)
    measured.cnot(0, 1).measure(1).cnot(0, 1)
    assert measured.cnot_count() == 2
    assert CancelInversesPass().run(measured).cnot_count() == 2


def test_merge_rotations_same_wire():
    circuit = QuantumCircuit(1)
    circuit.rz(0.3, 0).rz(0.4, 0)
    merged = MergeRotationsPass().run(circuit)
    assert len(merged) == 1
    assert merged[0].params[0] == pytest.approx(0.7)


def test_merge_rz_through_cnot_control_rx_through_target():
    circuit = QuantumCircuit(2)
    circuit.rz(0.3, 0).cnot(0, 1).rz(-0.3, 0)
    merged = MergeRotationsPass().run(circuit)
    assert [g.name for g in merged] == ["cnot"]
    circuit = QuantumCircuit(2)
    circuit.rx(0.5, 1).cnot(0, 1).rx(-0.5, 1)
    merged = MergeRotationsPass().run(circuit)
    assert [g.name for g in merged] == ["cnot"]


def test_merge_drops_identity_rotations():
    circuit = QuantumCircuit(2)
    circuit.rz(0.0, 0).rx(2 * math.pi, 1).ry(0.0, 0)
    assert len(MergeRotationsPass().run(circuit)) == 0


def test_merge_snaps_to_half_pi_grid():
    circuit = QuantumCircuit(1)
    circuit.rz(math.pi / 4 + 3e-10, 0).rz(math.pi / 4, 0)
    merged = MergeRotationsPass().run(circuit)
    assert len(merged) == 1
    assert merged[0].params[0] == math.pi / 2


def test_fuse_1q_run_to_euler_sandwich():
    """A long 1q run fuses to <= 3 gates (RZ RX RZ), same unitary."""
    circuit = QuantumCircuit(1)
    circuit.h(0).t(0).rx(0.3, 0).s(0).ry(-0.8, 0).h(0)
    fused = Fuse1qRunsPass().run(circuit)
    assert len(fused) <= 3
    assert {g.name for g in fused} <= {"rz", "rx"}
    _assert_same_unitary(circuit, fused)


def test_fuse_preserves_clifford_eligibility():
    """Snapping keeps an all-Clifford run Clifford after fusion."""
    circuit = QuantumCircuit(1)
    circuit.h(0).s(0).h(0).s(0)
    fused = Fuse1qRunsPass().run(circuit)
    _assert_same_unitary(circuit, fused)
    assert fused.is_clifford()


def test_fuse_identity_run_vanishes():
    circuit = QuantumCircuit(2)
    circuit.h(0).h(0).s(0).sdg(0).cnot(0, 1)
    fused = Fuse1qRunsPass().run(circuit)
    assert [g.name for g in fused] == ["cnot"]


def test_sandwich_rewrite_to_cz():
    circuit = QuantumCircuit(2)
    circuit.h(1).cnot(0, 1).h(1)
    rewritten = TwoQubitRewritePass().run(circuit)
    assert [g.name for g in rewritten] == ["cz"]
    _assert_same_unitary(circuit, rewritten)


def test_four_hadamard_flip_rule():
    """The color-change rule itself: H pairs on both wires reverse the
    CNOT. Exercised directly — through :meth:`run` the sandwich rule
    fires first on any flip-eligible pattern (its guard is a subset)."""
    circuit = QuantumCircuit(2)
    circuit.h(0).h(1).cnot(0, 1).h(0).h(1)
    opt_pass = TwoQubitRewritePass()
    flipped = _rebuild(circuit, opt_pass._apply(list(circuit), mode="flip"))
    assert [(g.name, g.qubits) for g in flipped] == [("cnot", (1, 0))]
    _assert_same_unitary(circuit, flipped)


def test_sandwich_takes_priority_over_flip():
    """When both rules match, the CZ rewrite wins: it deletes a CNOT
    site (2 probes per link), the flip only reorients one. The leftover
    control Hadamards are cheap — nativization reintroduces 1q frames
    around the link gate anyway."""
    circuit = QuantumCircuit(2)
    circuit.h(0).h(1).cnot(0, 1).h(0).h(1)
    rewritten = TwoQubitRewritePass().run(circuit)
    assert [g.name for g in rewritten] == ["h", "cz", "h"]
    assert rewritten.cnot_count() == 0
    _assert_same_unitary(circuit, rewritten)


# ------------------------------------------------------- report and obs


def test_report_counts_and_per_pass():
    circuit = QuantumCircuit(2)
    circuit.cnot(0, 1).cnot(0, 1).h(0).h(0)
    optimized, report = optimize_circuit(circuit, 1)
    assert len(optimized) == 0
    assert report.gates_removed == 4
    assert report.links_removed == 1
    assert report.per_pass["cancel_inverses"] == 4
    assert report.to_dict()["gates_removed"] == 4


def test_pass_spans_and_counters_emitted():
    circuit = QuantumCircuit(2)
    circuit.cnot(0, 1).cnot(0, 1)
    with observed(Tracer(), MetricsRegistry()) as (tracer, registry):
        optimize_circuit(circuit, 1)
    names = [span.name for span in tracer.spans]
    assert "opt.pass" in names
    counters = registry.snapshot()["counters"]
    assert counters["opt.runs"] == 1
    assert counters["opt.gates_removed"] == 2
    assert counters["opt.links_removed"] == 1


# -------------------------------------------------- native-side cleanup


def _nativized(program, device, level):
    compiled = transpile(program, device, optimization_level=level)
    sequence = NativeGateSequence.uniform(compiled.sites, "cz")
    return compiled, compiled.nativized(sequence)


def test_cleanup_drops_rz_before_measure_and_on_virgin_wires():
    device = small_test_device()
    program = QuantumCircuit(3, name="cleanup")
    program.h(0).cnot(0, 1).cnot(1, 2).measure_all()
    compiled, native = _nativized(program, device, level=2)
    _, baseline = _nativized(program, device, level=0)
    assert len(native) < len(baseline)
    ideal = StatevectorSimulator().distribution(baseline)
    cleaned = StatevectorSimulator().distribution(native)
    for key in set(ideal) | set(cleaned):
        assert ideal.get(key, 0.0) == pytest.approx(
            cleaned.get(key, 0.0), abs=1e-9
        )


@pytest.mark.parametrize("seed", differential_seeds(range(10)))
def test_cleanup_preserves_nativized_distribution(seed):
    """Level-2 native cleanup is distribution-exact on probe shapes."""
    rng = np.random.default_rng(8000 + seed)
    program = random_circuit(3, int(rng.integers(6, 16)), rng)
    program.measure_all()
    device = small_test_device()
    compiled = transpile(program, device, optimization_level=0)
    for gate in compiled.gate_options().values():
        assert gate  # device sanity
    sequence = NativeGateSequence.uniform(compiled.sites, "cz")
    native = compiled.nativized(sequence)
    cleaned = cleanup_native_circuit(native)
    assert len(cleaned) <= len(native)
    sim = StatevectorSimulator()
    left = sim.distribution(native)
    right = sim.distribution(cleaned)
    for key in set(left) | set(right):
        assert left.get(key, 0.0) == pytest.approx(
            right.get(key, 0.0), abs=1e-9
        )


# ------------------------------------------------- transpile integration


def test_transpile_level_zero_is_bit_identical_default():
    device = small_test_device()
    program = QuantumCircuit(3, name="ghz3")
    program.h(0).cnot(0, 1).cnot(1, 2).measure_all()
    default = transpile(program, device)
    explicit = transpile(program, device, optimization_level=0)
    assert default.scheduled == explicit.scheduled
    assert default.optimization_level == 0
    assert default.opt_report is None


def test_transpile_level_two_shrinks_probe_budget():
    """The vacuous-pair idiom: the dead link leaves ``1 + 2L``."""
    device = small_test_device()
    program = QuantumCircuit(3, name="padded")
    program.h(0).cnot(0, 1)
    program.cnot(1, 2).cnot(1, 2)  # scaffolding, qubit 2 otherwise idle
    program.measure_all()
    base = transpile(program, device, optimization_level=0)
    opt = transpile(program, device, optimization_level=2)
    assert opt.optimization_level == 2
    assert opt.opt_report is not None
    assert opt.opt_report.gates_removed >= 2
    assert len(opt.links_used()) < len(base.links_used())
    assert opt.num_cnot_sites < base.num_cnot_sites


def test_links_used_order_preserving_unique():
    device = small_test_device()
    program = QuantumCircuit(3)
    program.cnot(0, 1).cnot(1, 2).cnot(0, 1).measure_all()
    compiled = transpile(program, device)
    links = compiled.links_used()
    assert len(links) == len(set(links))
    first_seen = []
    for site in compiled.sites:
        if site.link not in first_seen:
            first_seen.append(site.link)
    assert links == first_seen
