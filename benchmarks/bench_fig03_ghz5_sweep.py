"""Fig. 3: GHZ_n5 over all 81 native gate combinations.

Paper shape: the runtime-best combination far exceeds the
noise-adaptive one (3x on Aspen-11); we assert a material gap.
"""

from repro.experiments import ledgers_to_text, run_experiment

from conftest import emit, run_once


def bench_fig3(benchmark, context):
    result = run_once(
        benchmark,
        lambda: run_experiment("fig3", context=context, shots=512),
    )
    emit(result)
    values = result.series["success_rates_in_enumeration_order"]
    assert len(values) == 81
    ratio = {r[0]: r[1] for r in result.rows}["best / noise-adaptive"]
    assert ratio > 1.05, "runtime best should clearly beat noise-adaptive"
    # All 81 sweep measurements flowed through the execution service.
    stats = context.executor.stats
    assert stats.jobs_by_tag.get("measure", 0) >= 81
    assert stats.shots >= 81 * 512
    print("--- execution-service stats ---")
    print(ledgers_to_text(context.ledgers()))
