"""Shared fixtures for the paper-artifact benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure from the paper
(see DESIGN.md's experiment index) and prints the same rows/series the
paper reports. Run with::

    pytest benchmarks/ --benchmark-only -s

Budgets are reduced relative to the full experiments so the whole
harness completes in minutes; `python -m repro experiments` runs the
full-budget versions.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext

#: One canonical "chip day": device seed, calibration seed, staleness.
STANDARD_SETUP = dict(seed=23, calibration_seed=3, drift_hours=30.0)


@pytest.fixture()
def context() -> ExperimentContext:
    """A fresh aged-Aspen-11 context per benchmark (order-independent)."""
    return ExperimentContext.create(**STANDARD_SETUP)


def run_once(benchmark, fn):
    """Execute an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit(result) -> None:
    """Print an experiment's rows (the bench's reproduction artifact)."""
    print()
    print(result.to_text())
