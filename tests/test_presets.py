"""Tests for device preset sampling (NoiseProfile mechanics)."""

import math

import numpy as np
import pytest

from repro.device import (
    DEFAULT_PROFILE,
    NOISELESS_PROFILE,
    NoiseProfile,
    build_device,
    small_test_device,
)
from repro.device.topology import linear_topology


class TestProfileSampling:
    def test_qubit_parameters_within_ranges(self):
        device = build_device(linear_topology(6), seed=3)
        low, high = DEFAULT_PROFILE.t1_us_range
        for params in device.qubit_params.values():
            assert low <= params.t1_us.mean <= high
            assert params.t2_us.current <= 2 * params.t1_us.current + 1e-9
            assert 0 <= params.readout_p01.current <= 0.5

    def test_depolarizing_within_log_range(self):
        device = build_device(linear_topology(6), seed=3)
        log_low, log_high = DEFAULT_PROFILE.two_qubit_depolarizing_log_range
        for (link, gate), params in device.gate_params.items():
            scale = DEFAULT_PROFILE.depolarizing_scale[gate]
            value = params.depolarizing.mean / scale
            assert math.exp(log_low) - 1e-12 <= value <= math.exp(log_high) + 1e-12

    def test_pulse_durations_assigned(self):
        device = build_device(linear_topology(3), seed=1)
        for (link, gate), params in device.gate_params.items():
            assert params.duration_ns == DEFAULT_PROFILE.pulse_durations_ns[gate]

    def test_coherent_outliers_present(self):
        # With a 30% outlier fraction over many draws, the coherent error
        # magnitudes must be visibly heavy-tailed.
        device = build_device(linear_topology(30), seed=5)
        magnitudes = sorted(
            abs(p.over_rotation.mean)
            for p in device.gate_params.values()
        )
        bulk = np.median(magnitudes)
        assert magnitudes[-1] > 3 * bulk

    def test_missing_gate_fraction_zero_keeps_all(self):
        device = small_test_device(6, seed=2)
        for link in device.topology.links:
            assert len(device.supported_gates(*link)) == 3

    def test_missing_gate_fraction_one_drops_gate(self):
        profile = NoiseProfile(
            **{
                **DEFAULT_PROFILE.__dict__,
                "missing_gate_fraction": {"xy": 1.0, "cz": 0.0, "cphase": 1.0},
            }
        )
        device = build_device(linear_topology(5), seed=2, profile=profile)
        for link in device.topology.links:
            assert device.supported_gates(*link) == ("cz",)

    def test_noiseless_profile_fidelities(self):
        device = build_device(
            linear_topology(4), seed=0, profile=NOISELESS_PROFILE
        )
        for link in device.topology.links:
            for gate in device.supported_gates(*link):
                assert device.true_pulse_fidelity(link, gate) == pytest.approx(
                    1.0, abs=1e-6
                )

    def test_different_seeds_differ(self):
        a = build_device(linear_topology(3), seed=1)
        b = build_device(linear_topology(3), seed=2)
        fa = a.true_pulse_fidelity((0, 1), "cz")
        fb = b.true_pulse_fidelity((0, 1), "cz")
        assert fa != pytest.approx(fb, abs=1e-9)

    def test_physics_flags_forwarded(self):
        from repro.device import aspen11

        device = aspen11(seed=1, idle_noise=True, crosstalk_zz=0.07)
        assert device.idle_noise is True
        assert device.crosstalk_zz == pytest.approx(0.07)
