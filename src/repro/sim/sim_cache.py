"""The exact-distribution pipeline and its cross-request memo.

Every device job needs one exact noisy output distribution, and this is
the one simulator that computes it, from the circuit's prepared
:class:`~repro.sim.circuit_compiler.Executable` (validated, compacted and
fusion-planned once per circuit by
:meth:`~repro.device.device.RigettiAspenDevice.prepare`), in one path:

1. **Build** the executable's distinct per-gate channels at the current
   parameter values: one call to the device's channel source for the
   whole ``channel_keys`` tuple, which serves cached channels from the
   channel cache and builds the rest with one stacked call per kind.
2. **Fold** them along the executable's fusion plan
   (:func:`~repro.sim.circuit_compiler.fold`), cutting the ``O(4^n)``
   contraction count before any state work.
3. **Evolve** ``|0..0>`` through the fused contractions.
4. **Apply readout** — measured-qubit marginal, readout confusion and
   the ``p > 1e-14`` filter.

Jobs run one after another on one drifting device, and every job
advances its clock, so no distribution one job computes is valid for
the next job on the same device. The oracle
:meth:`~repro.device.device.RigettiAspenDevice.noisy_distribution` does
not advance the clock, so the exact sweeps of the paper experiments
(``fig6``, ``fig12``, ``fig19``, ``ablation_budget``) evaluate many
circuits at one parameter state; they share the channels the channel
cache holds for that state, but each distribution is folded and evolved
in full. The only distribution memo is cross-request: with a
:class:`~repro.service.dedup.ProbeDistributionStore` attached, each
distribution is keyed by the device's full parameter fingerprint, the
executable's content digest (placement and instructions) and the
readout, and any device at the identical physics state is served the
stored distribution instead of simulating it. ``dist_hits`` counts
distributions served from the store, ``dist_misses`` distributions
simulated.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .channels import ReadoutError, Superoperator
from .circuit_compiler import Executable, fold
from .density_matrix import DensityMatrix, _apply_readout_confusion

__all__ = ["SimulationCache"]

#: The per-gate channel matrices behind a tuple of channel keys, at
#: current values, in key order.
ChannelSource = Callable[[Tuple[Hashable, ...]], Sequence[np.ndarray]]
#: The device's physics fingerprint, read per store lookup.
StateKey = Callable[[], object]


class SimulationCache:
    """A device's distribution pipeline, optionally backed by a store.

    It holds no per-epoch state, so drift never has to flush it: the
    shared store's keys carry the device's parameter fingerprint.
    """

    def __init__(self) -> None:
        self._shared_store = None
        self.dist_hits = 0
        self.dist_misses = 0
        self.shared_publishes = 0

    def attach_shared_store(self, store) -> None:
        """Consult/publish exact distributions through a shared store.

        ``store`` needs ``get(key)``/``put(key, distribution)`` (e.g.
        :class:`~repro.service.dedup.ProbeDistributionStore`). A hit is
        the exact dict the producing device computed, so it serves any
        request whose device reaches the identical state.
        """
        self._shared_store = store

    def distribution(
        self,
        executable: Executable,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
        channels: ChannelSource,
        state_key: StateKey,
    ) -> Dict[str, float]:
        """Exact noisy distribution, from the store or simulated.

        The result is the measured-qubit marginal after readout
        confusion, big-endian keys, outcomes of ``p <= 1e-14`` dropped.
        ``channels`` builds (or fetches) the channels behind the
        executable's whole ``channel_keys`` tuple at the current
        parameter values, in one call, made only when the distribution
        is simulated.
        ``state_key`` is called only when a store is attached, and must
        change whenever the device's physics change (the device's
        ``parameter_fingerprint``).
        """
        key = None
        if self._shared_store is not None:
            key = (
                state_key(),
                executable.digest,
                self._readout_key(readout_errors),
            )
            shared = self._shared_store.get(key)
            if shared is not None:
                self.dist_hits += 1
                return shared
        self.dist_misses += 1
        matrices = channels(executable.channel_keys)
        state = DensityMatrix(len(executable.qubits))
        for qubits, matrix in fold(executable.blocks, matrices):
            state.apply_superoperator(Superoperator(matrix), qubits)
        result = self._finish(executable.measured, state, readout_errors)
        if key is not None:
            self._shared_store.put(key, result)
            self.shared_publishes += 1
        return result

    def distribution_batch(
        self,
        executables: Sequence[Executable],
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
        channels: ChannelSource,
        state_key: StateKey,
    ) -> List[Dict[str, float]]:
        """:meth:`distribution` for several executables on one placement.

        Kept as a named entry point because ``bench/tracing.py`` wraps
        it as part of the ``sim.distribution`` layer.
        """
        return [
            self.distribution(executable, readout_errors, channels, state_key)
            for executable in executables
        ]

    @staticmethod
    def _readout_key(
        readout_errors: Optional[Sequence[Optional[ReadoutError]]]
    ) -> Tuple:
        return tuple(
            None if error is None else (error.p0_given_1, error.p1_given_0)
            for error in (readout_errors or ())
        )

    @staticmethod
    def _finish(
        measured: Tuple[int, ...],
        state: DensityMatrix,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
    ) -> Dict[str, float]:
        """Measured-marginal + readout confusion + result-dict build."""
        measured = measured or tuple(range(state.num_qubits))
        probs = state.probabilities(measured)
        if readout_errors is not None:
            probs = _apply_readout_confusion(probs, measured, readout_errors)
        width = len(measured)
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > 1e-14
        }

    def stats(self) -> Dict[str, int]:
        """Flat counters; keys are prefixed to avoid colliding with
        ChannelCache keys when backends merge them."""
        return {
            "dist_hits": self.dist_hits,
            "dist_misses": self.dist_misses,
            "dist_shared_publishes": self.shared_publishes,
        }
