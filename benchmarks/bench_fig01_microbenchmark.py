"""Fig. 1(c): RX(pi)+CNOT micro-benchmark, SR per native gate."""

from repro.experiments import ledgers_to_text, run_experiment

from conftest import emit, run_once


def bench_fig1c(benchmark, context):
    result = run_once(
        benchmark,
        lambda: run_experiment("fig1c", context=context, shots=2048),
    )
    emit(result)
    assert len(result.rows) == 3
    assert all(0.0 <= row[1] <= 1.0 for row in result.rows)
    # Every device job went through the execution service ledger.
    stats = context.executor.stats
    assert stats.jobs > 0 and stats.shots > 0
    print("--- execution-service stats ---")
    print(ledgers_to_text(context.ledgers()))
