"""Tests for counts/distribution utilities."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.sampler import (
    counts_to_distribution,
    marginal_distribution,
    merge_counts,
    most_probable,
    sample_distribution,
    total_shots,
    uniform_distribution,
)
from tests.oracle import differential_seeds, per_shot_counts


class TestConversions:
    def test_counts_to_distribution(self):
        dist = counts_to_distribution({"00": 75, "11": 25})
        assert dist == {"00": 0.75, "11": 0.25}

    def test_empty_counts_rejected(self):
        with pytest.raises(SimulationError):
            counts_to_distribution({})

    def test_total_shots(self):
        assert total_shots({"0": 3, "1": 4}) == 7

    def test_sample_distribution_totals(self):
        counts = sample_distribution(
            {"0": 0.5, "1": 0.5}, 1000, np.random.default_rng(0)
        )
        assert total_shots(counts) == 1000

    def test_sample_distribution_statistics(self):
        counts = sample_distribution(
            {"0": 0.9, "1": 0.1}, 5000, np.random.default_rng(1)
        )
        assert abs(counts["0"] - 4500) < 200

    def test_sample_rejects_zero_shots(self):
        with pytest.raises(SimulationError):
            sample_distribution({"0": 1.0}, 0, np.random.default_rng(0))

    def test_sample_rejects_empty_mass(self):
        with pytest.raises(SimulationError):
            sample_distribution({"0": 0.0}, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("shots", [64, 256, 1024])
    @pytest.mark.parametrize("seed", differential_seeds(range(3)))
    def test_tally_matches_per_shot_loop(self, seed, shots):
        # Four outcomes, one of them rare, as a small device readout.
        dist = {"00": 0.46, "01": 0.05, "10": 0.02, "11": 0.47}
        counts = sample_distribution(dist, shots, np.random.default_rng(seed))
        reference = per_shot_counts(dist, shots, np.random.default_rng(seed))
        assert counts == reference
        assert list(counts) == list(reference)
        assert all(type(value) is int for value in counts.values())

    def test_negative_mass_clipped(self):
        counts = sample_distribution(
            {"0": 1.0, "1": -0.001}, 100, np.random.default_rng(0)
        )
        assert counts == {"0": 100}


class TestManipulation:
    def test_merge_counts(self):
        merged = merge_counts({"0": 1, "1": 2}, {"1": 3, "2": 4})
        assert merged == {"0": 1, "1": 5, "2": 4}

    def test_marginal_distribution(self):
        dist = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
        marginal = marginal_distribution(dist, [0])
        assert marginal == {"0": 0.5, "1": 0.5}

    def test_marginal_reorders_bits(self):
        dist = {"01": 1.0}
        assert marginal_distribution(dist, [1, 0]) == {"10": 1.0}

    def test_most_probable(self):
        dist = {"a": 0.2, "b": 0.5, "c": 0.3}
        assert most_probable(dist, top=2) == [("b", 0.5), ("c", 0.3)]

    def test_most_probable_tie_lexicographic(self):
        assert most_probable({"b": 0.5, "a": 0.5})[0][0] == "a"

    def test_uniform_distribution(self):
        dist = uniform_distribution(2)
        assert dist == {
            "00": 0.25,
            "01": 0.25,
            "10": 0.25,
            "11": 0.25,
        }

    def test_uniform_requires_positive_width(self):
        with pytest.raises(SimulationError):
            uniform_distribution(0)
