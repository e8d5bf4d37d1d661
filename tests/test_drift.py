"""Statistical checks of the Ornstein-Uhlenbeck drift, on the array advance.

Each test builds a :class:`DriftState` of many independent slots and
advances it with :meth:`DriftState.advance` — the one advance the
library has. Bit-identity with the per-object reference lives in
``tests/test_drift_state.py``.
"""

import math

import numpy as np
import pytest

from repro.device import build_device
from repro.device.drift import DriftingValue, DriftState
from repro.device.topology import linear_topology
from repro.exceptions import DeviceError


def _state(count, mean, std, tau, value=None, low=-math.inf, high=math.inf):
    start = mean if value is None else value
    return DriftState([(mean, std, tau, start, low, high)] * count)


class TestOrnsteinUhlenbeck:
    def test_initial_value_defaults_to_mean(self):
        # Preset processes start at the mean they revert to.
        drift = build_device(linear_topology(4), seed=3).drift
        assert np.array_equal(drift.value, drift.mean)

    def test_zero_std_is_constant(self):
        state = _state(3, mean=0.3, std=0.0, tau=5.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for _ in range(10):
            state.advance(100.0, rng)
        assert state.current == [0.3] * 3
        assert rng.bit_generator.state == before  # nothing drawn

    def test_zero_dt_is_noop(self):
        state = _state(2, mean=0.0, std=1.0, tau=1.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        state.advance(0.0, rng)
        assert state.current == [0.0, 0.0]
        assert rng.bit_generator.state == before

    def test_negative_dt_rejected(self):
        state = _state(1, mean=0.0, std=1.0, tau=1.0)
        with pytest.raises(DeviceError):
            state.advance(-1.0, np.random.default_rng(0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DeviceError):
            _state(1, mean=0.0, std=-1.0, tau=1.0)
        with pytest.raises(DeviceError):
            _state(1, mean=0.0, std=1.0, tau=0.0)
        state = _state(2, mean=0.0, std=1.0, tau=1.0)
        with pytest.raises(DeviceError):
            state.assign(1, (0.0, 1.0, -2.0, 0.0, -math.inf, math.inf))
        assert state.tau.tolist() == [1.0, 1.0]  # rejected edit left no trace

    def test_stationary_statistics(self):
        # Advance far past the correlation time: samples should match
        # the stationary distribution (mean, std).
        state = _state(3000, mean=2.0, std=0.5, tau=1.0)
        state.advance(50.0, np.random.default_rng(42))
        assert np.mean(state.value) == pytest.approx(2.0, abs=0.05)
        assert np.std(state.value) == pytest.approx(0.5, abs=0.05)

    def test_mean_reversion(self):
        # One correlation time decays the offset by about 1/e.
        state = _state(500, mean=0.0, std=1.0, tau=10.0, value=5.0)
        state.advance(10.0, np.random.default_rng(0))
        assert np.mean(state.value) == pytest.approx(
            5.0 * math.exp(-1.0), abs=0.15
        )

    def test_small_steps_match_large_step_statistics(self):
        # Advancing in many small steps must equal one big step in law.
        big = _state(2000, mean=0.0, std=1.0, tau=5.0, value=1.0)
        big.advance(5.0, np.random.default_rng(7))
        small = _state(2000, mean=0.0, std=1.0, tau=5.0, value=1.0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            small.advance(1.0, rng)
        assert np.mean(big.value) == pytest.approx(
            np.mean(small.value), abs=0.08
        )
        assert np.std(big.value) == pytest.approx(
            np.std(small.value), abs=0.08
        )

    def test_distinct_taus_revert_at_their_own_rate(self):
        rows = [(0.0, 1.0, 10.0, 5.0, -math.inf, math.inf)] * 500
        rows += [(0.0, 1.0, 40.0, 5.0, -math.inf, math.inf)] * 500
        state = DriftState(rows)
        state.advance(10.0, np.random.default_rng(3))
        fast, slow = state.value[:500], state.value[500:]
        assert np.mean(fast) == pytest.approx(5.0 * math.exp(-1.0), abs=0.15)
        assert np.mean(slow) == pytest.approx(5.0 * math.exp(-0.25), abs=0.15)


class TestDriftingValue:
    def test_fixed_never_moves(self):
        value = DriftingValue.fixed(0.75)
        rng = np.random.default_rng(0)
        for _ in range(5):
            value.state.advance(1e9, rng)
        assert value.current == 0.75

    def test_clipping(self):
        state = DriftState([(0.0, 1.0, 1.0, -3.0, 0.0, 1.0)])
        value = DriftingValue(state, 0)
        assert value.current == 0.0
        assert value.value == -3.0  # the process keeps its raw value

    def test_advance_returns_clipped(self):
        state = DriftState([(5.0, 0.0, 1.0, 5.0, 0.0, 1.0)])
        state.advance(10.0, np.random.default_rng(0))
        assert DriftingValue(state, 0).current == 1.0
