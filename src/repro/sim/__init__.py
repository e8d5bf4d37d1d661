"""Simulation backends: ideal statevector, noisy density matrix, stabilizer.

* :class:`~repro.sim.statevector.StatevectorSimulator` — exact noise-free
  reference (the ``P`` of the Success-Rate metric).
* :class:`~repro.sim.density_matrix.DensityMatrixSimulator` — open-system
  simulator driving the simulated Rigetti device.
* :class:`~repro.sim.stabilizer.StabilizerSimulator` — poly-time Clifford
  simulation (CHP tableau) for CopyCat ideal outputs.
* :mod:`~repro.sim.channels` / :mod:`~repro.sim.noise_model` — Kraus noise
  primitives and the per-gate noise lookup the device composes.
* :mod:`~repro.sim.sampler` — counts/distribution utilities.
"""

from .channel_cache import ChannelCache
from .circuit_compiler import Executable, circuit_digest
from .sim_cache import SimulationCache
from .channels import (
    KrausChannel,
    ReadoutError,
    Superoperator,
    amplitude_damping_channel,
    compose_channels,
    depolarizing_channel,
    identity_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
    unitary_channel,
)
from .density_matrix import DensityMatrix, DensityMatrixSimulator
from .noise_model import GateNoiseSpec, NoiseModel
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
    "KrausChannel",
    "ReadoutError",
    "Superoperator",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "two_qubit_depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "compose_channels",
    "DensityMatrix",
    "DensityMatrixSimulator",
    "GateNoiseSpec",
    "NoiseModel",
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
