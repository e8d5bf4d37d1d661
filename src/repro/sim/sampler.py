"""Counts and distribution utilities.

Executions everywhere in the library produce ``Counts`` — a mapping from
big-endian bitstrings to shot counts — while metrics operate on normalized
distributions. This module holds the conversions and small manipulations
(marginals, merging, top outcomes) shared by the device executor,
experiments, and tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError

__all__ = [
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

Counts = Dict[str, int]
Distribution = Dict[str, float]


def total_shots(counts: Mapping[str, int]) -> int:
    return int(sum(counts.values()))


def counts_to_distribution(counts: Mapping[str, int]) -> Distribution:
    """Normalize counts to a probability distribution."""
    total = total_shots(counts)
    if total <= 0:
        raise SimulationError("cannot normalize empty counts")
    return {key: value / total for key, value in counts.items()}


def sample_distribution(
    distribution: Mapping[str, float], shots: int, rng: np.random.Generator
) -> Counts:
    """Draw *shots* samples from a distribution, returning counts."""
    if shots <= 0:
        raise SimulationError("shots must be positive")
    keys = sorted(distribution)
    probs = np.array([max(0.0, distribution[k]) for k in keys], dtype=float)
    norm = probs.sum()
    if norm <= 0:
        raise SimulationError("distribution has no probability mass")
    probs /= norm
    draws = rng.choice(len(keys), size=shots, p=probs)
    # Keys in order of first draw, as a per-shot tally would insert them.
    drawn, first, tallies = np.unique(
        draws, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return {
        keys[index]: count
        for index, count in zip(
            drawn[order].tolist(), tallies[order].tolist()
        )
    }


def merge_counts(*many: Mapping[str, int]) -> Counts:
    """Sum several counts dictionaries."""
    merged: Counts = {}
    for counts in many:
        for key, value in counts.items():
            merged[key] = merged.get(key, 0) + int(value)
    return merged


def marginal_distribution(
    distribution: Mapping[str, float], positions: Sequence[int]
) -> Distribution:
    """Marginalize a distribution onto the given bit positions (in order)."""
    result: Distribution = {}
    for key, prob in distribution.items():
        reduced = "".join(key[p] for p in positions)
        result[reduced] = result.get(reduced, 0.0) + prob
    return result


def most_probable(
    distribution: Mapping[str, float], top: int = 1
) -> List[Tuple[str, float]]:
    """The *top* most likely outcomes, ties broken lexicographically."""
    ranked = sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


def uniform_distribution(width: int) -> Distribution:
    """The uniform distribution over all bitstrings of the given width."""
    if width < 1:
        raise SimulationError("width must be positive")
    prob = 1.0 / (2**width)
    return {format(i, f"0{width}b"): prob for i in range(2**width)}
