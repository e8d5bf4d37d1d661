"""Simulation backends: ideal statevector, noisy density matrix, stabilizer.

* :class:`~repro.sim.statevector.StatevectorSimulator` — exact noise-free
  reference (the ``P`` of the Success-Rate metric).
* :class:`~repro.sim.sim_cache.SimulationCache` — the simulated Rigetti
  device's one noisy simulator: per-gate channels built in closed form
  (:mod:`~repro.sim.channels`, memoized by the
  :class:`~repro.sim.channel_cache.ChannelCache`), folded along a
  prepared :class:`~repro.sim.circuit_compiler.Executable` and evolved on
  a :class:`~repro.sim.density_matrix.DensityMatrix`.
* :class:`~repro.sim.stabilizer.StabilizerSimulator` — poly-time Clifford
  simulation (CHP tableau) for CopyCat ideal outputs.
* :mod:`~repro.sim.sampler` — counts/distribution utilities.
"""

from .channel_cache import ChannelCache
from .circuit_compiler import Executable, circuit_digest
from .sim_cache import SimulationCache
from .channels import ReadoutError, Superoperator
from .density_matrix import DensityMatrix
from .sampler import (
    Counts,
    Distribution,
    counts_to_distribution,
    marginal_distribution,
    merge_counts,
    most_probable,
    sample_distribution,
    total_shots,
    uniform_distribution,
)
from .stabilizer import StabilizerSimulator, StabilizerTableau
from .statevector import StatevectorSimulator, StateVector, ideal_distribution

__all__ = [
    "ChannelCache",
    "Executable",
    "circuit_digest",
    "SimulationCache",
    "ReadoutError",
    "Superoperator",
    "DensityMatrix",
    "StabilizerSimulator",
    "StabilizerTableau",
    "StatevectorSimulator",
    "StateVector",
    "ideal_distribution",
    "Counts",
    "Distribution",
    "counts_to_distribution",
    "sample_distribution",
    "merge_counts",
    "marginal_distribution",
    "most_probable",
    "total_shots",
    "uniform_distribution",
]
