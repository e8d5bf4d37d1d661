"""Temporal drift of device parameters (Ornstein–Uhlenbeck processes).

The paper's Section III-B observes that device error rates wander between
calibration cycles while the *reported* values plateau (Fig. 8), and its
Section VI-E shows drift within a single calibration window reshuffling
which native-gate sequence is best (Figs. 21-22). We model every noise
parameter as a mean-reverting OU process advanced by simulated wall-clock
time, using the exact discrete transition

``x(t+dt) = mu + (x(t) - mu) * a + sigma_stat * sqrt(1 - a^2) * N(0,1)``

with ``a = exp(-dt / tau)``, so updates are step-size invariant: advancing
by ``dt`` in one step or many is statistically identical.

All drifting parameters of one device live in a single
:class:`DriftState`: six flat float64 arrays (``mean``, ``std``, ``tau``,
``value``, ``low``, ``high``) with one slot per parameter, in the
device's advance order — each qubit's six values in insertion order,
then each (link, gate)'s three. Those arrays are the only copy of the
values; a :class:`DriftingValue` is a view of one slot, and assigning a
noise-parameter field writes the new process into its slot. The public
rows are read-only: :meth:`DriftState.advance` and
:meth:`DriftState.assign` are the only writers, so the clipped values the
physics reads (:attr:`DriftState.observed`) never go stale.

:meth:`DriftState.advance` draws one ``standard_normal(k)`` vector over
the ``k`` slots whose ``std`` is nonzero and applies the transition
elementwise with the same IEEE operations, in the same order, as the
scalar formula above (``exp`` and ``sqrt`` run in Python, once per
distinct ``tau``). Values and the generator stream are therefore
bit-identical to advancing each parameter on its own, in slot order.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import DeviceError

__all__ = ["DriftState", "DriftingValue", "Row"]

#: One slot's process: ``(mean, std, tau, value, low, high)``.
Row = Tuple[float, float, float, float, float, float]

#: Table rows validated on every write.
_STD, _TAU = 1, 2


def _validate(table: np.ndarray) -> None:
    if (table[_STD] < 0).any():
        raise DeviceError("stationary std must be non-negative")
    if (table[_TAU] <= 0).any():
        raise DeviceError("correlation time must be positive")


class DriftState:
    """Every drifting parameter of one device, as flat float64 arrays.

    Args:
        rows: One ``(mean, std, tau, value, low, high)`` per parameter,
            in advance order. ``std`` is the stationary standard
            deviation (0 freezes the slot), ``tau`` the correlation time
            in the clock's units (microseconds throughout this library),
            ``value`` the raw process value, and ``[low, high]`` the
            range the *observed* value is clipped to.

    Attributes:
        mean / std / tau / value / low / high: Read-only row views of
            one ``(6, n)`` table — the storage itself, not copies. Edit a
            slot with :meth:`assign`.
        observed: The clipped values (read-only), refreshed on every
            advance and edit: what the physics reads.
        current: :attr:`observed` as Python floats, so reads cost a list
            index.
    """

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        table = np.array(rows, dtype=float).reshape(len(rows), 6)
        self._adopt(table.T.copy())

    def _bind(self, table: np.ndarray) -> None:
        self._table = table
        self._value = table[3]
        views = list(table)
        for view in views:
            view.flags.writeable = False
        (self.mean, self.std, self.tau,
         self.value, self.low, self.high) = views

    def _adopt(self, table: np.ndarray) -> None:
        _validate(table)
        self._bind(table)
        self._index_moving()
        self._refresh()

    @classmethod
    def gather(
        cls, slices: Sequence[Tuple["DriftState", int, int]]
    ) -> "DriftState":
        """A new state holding copies of ``(state, start, width)`` slices,
        concatenated in order."""
        state = cls.__new__(cls)
        state._adopt(
            np.concatenate(
                [source._table[:, start:start + width]
                 for source, start, width in slices],
                axis=1,
            )
            if slices
            else np.empty((6, 0))
        )
        return state

    def clone(self) -> "DriftState":
        """An independent copy: advancing either leaves the other put."""
        twin = self.__class__.__new__(self.__class__)
        twin._bind(self._table.copy())
        # Derived state that advance() and assign() replace rather than
        # edit in place, so the twin may share it until then.
        twin._moving = self._moving
        twin._tau_groups = self._tau_groups
        twin.observed = self.observed
        twin.current = list(self.current)
        return twin

    def __len__(self) -> int:
        return self._table.shape[1]

    # ------------------------------------------------------------------
    def _index_moving(self) -> None:
        """Cache which slots draw noise and their distinct ``tau``s."""
        moving = np.flatnonzero(self.std != 0)
        taus = self.tau[moving]
        self._moving = moving
        self._tau_groups = [
            (float(tau), np.flatnonzero(taus == tau))
            for tau in np.unique(taus)
        ]

    def _refresh(self) -> None:
        observed = np.minimum(self.high, np.maximum(self.low, self.value))
        observed.flags.writeable = False
        self.observed = observed
        self.current = observed.tolist()

    def row(self, index: int) -> Row:
        """The process held in slot *index*."""
        mean, std, tau, value, low, high = self._table[:, index].tolist()
        return mean, std, tau, value, low, high

    def assign(self, index: int, row: Sequence[float]) -> None:
        """Replace slot *index*'s process (the field-assignment path)."""
        column = np.array(row, dtype=float).reshape(6, 1)
        _validate(column)
        self._table[:, index] = column[:, 0]
        self._index_moving()
        self._refresh()

    def advance(self, dt: float, rng: np.random.Generator) -> None:
        """Advance every slot by *dt*; one draw per slot with ``std != 0``.

        ``dt == 0`` draws nothing; ``dt < 0`` raises :class:`DeviceError`.
        """
        if dt < 0:
            raise DeviceError("cannot advance time backwards")
        if dt == 0:
            return
        moving = self._moving
        if moving.size:
            noise = rng.standard_normal(moving.size)
            decay, root = self._factors(dt)
            mean = self.mean[moving]
            self._value[moving] = (
                mean
                + (self._value[moving] - mean) * decay
                + (self.std[moving] * root) * noise
            )
            self._refresh()

    def _factors(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """``exp(-dt/tau)`` and ``sqrt(1 - decay**2)`` per moving slot,
        computed in Python once per distinct ``tau`` (numpy's ``exp`` and
        squaring are not bit-identical to ``math.exp`` and ``**2``)."""
        decay = np.empty(self._moving.size)
        root = np.empty(self._moving.size)
        for tau, positions in self._tau_groups:
            step = math.exp(-dt / tau)
            decay[positions] = step
            root[positions] = math.sqrt(1.0 - step**2)
        return decay, root


class DriftingValue:
    """One drifting parameter: a view of one :class:`DriftState` slot.

    The observed value (:attr:`current`) is the OU process clipped to
    ``[low, high]``; the underlying process keeps its dynamics (standard
    reflected-read treatment — keeps the process ergodic and the clip
    rare when the bounds are a few sigma away).
    """

    __slots__ = ("state", "index")

    def __init__(self, state: DriftState, index: int) -> None:
        self.state = state
        self.index = index

    @classmethod
    def fixed(cls, value: float) -> "DriftingValue":
        """A non-drifting, unclipped constant (in its own one-slot state),
        for tests and hand-built devices."""
        return cls(
            DriftState([(value, 0.0, 1.0, value, -math.inf, math.inf)]), 0
        )

    @property
    def current(self) -> float:
        return self.state.current[self.index]

    @property
    def mean(self) -> float:
        return float(self.state.mean[self.index])

    @property
    def value(self) -> float:
        """The raw (unclipped) process value."""
        return float(self.state.value[self.index])

    def row(self) -> Row:
        return self.state.row(self.index)
