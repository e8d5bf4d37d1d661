"""Self-test of the benchmark: tiny workload runs, names and wrappers.

Run from the repository root::

    python3 -m pytest bench/test_bench.py -q

Outside the tier-1 test paths on purpose; finishes in well under a
minute on two cores.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = ("tele_n2", "GHZ_n4")


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed_and_declared():
    spec = _spec()
    for group in (workloads.END_TO_END, workloads.PER_LAYER):
        for name in group:
            assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    for declared, units in (
        (spec["end_to_end"], workloads.END_TO_END),
        (spec["per_layer"], workloads.PER_LAYER),
    ):
        for metric in declared:
            assert metric["unit"] == units[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _bindings():
    """Every (owner, name) -> value whose value is a traced original."""
    originals = set()
    for _, module_name, qualname in tracing.TARGETS:
        owner = sys.modules[module_name]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals.add(id(vars(owner)[attr]))
    found = {}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        owners = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for name, value in vars(owner).items():
                if id(value) in originals:
                    found[(owner, name)] = value
    return found


def test_wrappers_rebind_every_alias_and_restore_originals():
    import repro
    from repro.service import angel_service

    before = _bindings()
    # Direct imports of the same function elsewhere are bindings too.
    assert (angel_service, "transpile") in before
    assert (repro, "runtime_best") in before
    with tracing.LayerTracer():
        for (owner, name), original in before.items():
            assert vars(owner)[name] is not original, (owner, name)
    for (owner, name), original in before.items():
        assert vars(owner)[name] is original, (owner, name)
    assert _bindings().keys() == before.keys()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    tracer = tracing.LayerTracer()
    result = workloads.run_workload(
        name, seed=1, seconds=1, tracer=tracer, setups=1, programs=TINY
    )
    assert result.ops
    assert [op.error for op in result.ops] == [None] * len(result.ops)
    for layer, row in tracer.layer_table().items():
        assert row["self_s"] <= row["busy_s"] + 1e-9, layer
        assert row["self_s"] >= -1e-9, layer
    metrics = workloads.per_layer(result, tracer)
    assert set(metrics) == set(workloads.PER_LAYER)
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["core.probe_budget_ratio"] <= 1.0
    if name in ("standalone_cold", "paper_eval"):
        assert metrics["layers.coverage"] >= 0.95
    if name == "standalone_cold":
        assert metrics["service.dedup_ratio"] == 0.0
    for value, samples in workloads.end_to_end(result).values():
        assert value > 0 and samples >= 1
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    first = json.loads(path.read_text().splitlines()[0])
    assert {"name", "start", "end", "parent", "thread", "request"} <= set(first)


def test_wrong_output_counts_as_failed():
    result = workloads.run_workload(
        "standalone_cold", seed=2, seconds=1, setups=1, programs=TINY[:1]
    )
    op = result.ops[0]
    workloads._fail(op, workloads._outcome_problems(op.outcome, shots=1))
    assert op.error.startswith("wrong output")
    assert workloads.summary(result)["failed"] == 1
