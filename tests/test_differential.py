"""Seeded property-based differential simulator tests.

Three independent simulation backends cover overlapping circuit classes:

* Clifford circuits — :class:`StabilizerSimulator` (CHP tableau) vs the
  noiseless :class:`DensityMatrixSimulator` of ``tests/oracle.py``;
* Clifford CopyCats of random programs — the exact probe circuits ANGEL
  runs, same pair of backends;
* arbitrary noiseless circuits — :class:`StatevectorSimulator` vs
  :class:`DensityMatrixSimulator` (a pure state's density matrix must
  reproduce its statevector probabilities exactly).

Each case is a seeded random circuit, so the suite is a deterministic
~50-case property sweep per run. CI's nightly-style differential job
widens the sweep through ``REPRO_DIFFERENTIAL_SEEDS`` (a comma-separated
list of extra seeds applied to every class).
"""

import numpy as np
import pytest

from repro.circuit.random_circuits import (
    random_circuit,
    random_clifford_circuit,
)
from repro.core.copycat import build_copycat
from repro.sim.stabilizer import StabilizerSimulator
from repro.sim.statevector import StatevectorSimulator
from tests.oracle import DensityMatrixSimulator, differential_seeds

_ATOL = 1e-9


def _assert_distributions_match(left, right, atol=_ATOL):
    """Two exact distributions over the same register agree pointwise."""
    keys = set(left) | set(right)
    assert keys, "empty distributions"
    for key in keys:
        assert left.get(key, 0.0) == pytest.approx(
            right.get(key, 0.0), abs=atol
        ), f"outcome {key}: {left.get(key, 0.0)} != {right.get(key, 0.0)}"
    assert sum(left.values()) == pytest.approx(1.0, abs=1e-6)
    assert sum(right.values()) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", differential_seeds(range(15)))
def test_clifford_stabilizer_vs_density_matrix(seed):
    """Random Clifford circuits: tableau == noiseless density matrix."""
    rng = np.random.default_rng(1000 + seed)
    num_qubits = int(rng.integers(2, 5))
    depth = int(rng.integers(5, 25))
    circuit = random_clifford_circuit(num_qubits, depth, rng)
    stab = StabilizerSimulator().distribution(circuit)
    dense = DensityMatrixSimulator().distribution(circuit)
    _assert_distributions_match(stab, dense)


@pytest.mark.parametrize("seed", differential_seeds(range(10)))
def test_clifford_copycat_stabilizer_vs_density_matrix(seed):
    """CopyCats with a zero non-Clifford budget are pure Clifford; the
    exact probe circuits ANGEL runs must agree across backends."""
    rng = np.random.default_rng(2000 + seed)
    num_qubits = int(rng.integers(2, 5))
    depth = int(rng.integers(8, 30))
    program = random_circuit(num_qubits, depth, rng)
    copycat = build_copycat(program, max_non_clifford=0)
    circuit = copycat.circuit
    assert circuit.compacted()[0].is_clifford()
    stab = StabilizerSimulator().distribution(circuit)
    dense = DensityMatrixSimulator().distribution(circuit)
    _assert_distributions_match(stab, dense)
    # The CopyCat's own ideal_distribution (which picks the stabilizer
    # path for Clifford circuits) agrees too, modulo compaction.
    ideal = copycat.ideal_distribution()
    assert sum(ideal.values()) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", differential_seeds(range(25)))
def test_noiseless_statevector_vs_density_matrix(seed):
    """Arbitrary circuits, no noise: |psi><psi| probabilities == |psi|^2."""
    rng = np.random.default_rng(3000 + seed)
    num_qubits = int(rng.integers(2, 5))
    depth = int(rng.integers(5, 25))
    circuit = random_circuit(num_qubits, depth, rng)
    vector = StatevectorSimulator().distribution(circuit)
    dense = DensityMatrixSimulator().distribution(circuit)
    _assert_distributions_match(vector, dense)


def test_sweep_covers_at_least_fifty_cases():
    """The default parametrization is a ~50-case property sweep."""
    total = sum(
        len(differential_seeds(range(count))) for count in (15, 10, 25)
    )
    assert total >= 50
