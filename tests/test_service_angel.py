"""Graceful degradation: ANGEL's search survives a flaky cloud service.

Acceptance criteria pinned here (ISSUE 2):

* With a seeded fault profile injecting >=10% transient probe-job
  failures, ANGEL's localized search on GHZ-5 completes without raising.
* The remote backend reports the retries and failures, and
  ``ExecutorStats`` the fallbacks.
* Degraded links fall back to the calibration-fidelity choice.
* With a zero-fault profile, the remote path is bit-identical to the
  local path.
"""

import pytest

from repro.core.angel import Angel, AngelConfig
from repro.experiments import (
    ExperimentContext,
    ablation_probe_shots,
    extension_cdr_composition,
    fig18_main_evaluation,
    fig20_reference_ablation,
    fig21_repeated_executions,
)
from repro.programs.ghz import ghz
from repro.service import FaultProfile, RetryPolicy, fault_profile


def _angel_run(ctx, probe_shots=200, seed=3):
    angel = Angel(
        ctx.device,
        ctx.calibration,
        AngelConfig(probe_shots=probe_shots, seed=seed),
    )
    return angel, angel.compile_and_select(ghz(5))


#: Experiments whose jobs a remote context must route through its cloud
#: service without passing them an executor, at small budgets.
REMOTE_ROUTED = {
    "ablation_shots": (ablation_probe_shots, dict(shot_budgets=(64,))),
    "fig20": (
        fig20_reference_ablation,
        dict(benchmarks=("GHZ_n4",), trials=1),
    ),
    "fig21": (fig21_repeated_executions, dict(iterations=1)),
    "extension_cdr": (
        extension_cdr_composition,
        dict(
            num_training=4,
            training_shots=64,
            target_shots=64,
            probe_shots=64,
        ),
    ),
}


#: A harsh profile (40% per-job faults + batch drops) paired with a
#: no-retry policy below, so a visible fraction of probes fail
#: *permanently* and the degradation paths actually exercise.
STRESS = FaultProfile(
    name="stress",
    p_reject=0.2,
    p_timeout=0.1,
    p_lost_result=0.1,
    p_batch_partial=0.2,
)


class TestAngelUnderFaults:
    def test_flaky_profile_completes_with_retries(self):
        """>=10% transient faults: the search completes, retries absorb."""
        assert fault_profile("flaky").p_job_fault >= 0.10
        ctx = ExperimentContext.create(
            backend="remote", fault_profile="flaky", fault_seed=7
        )
        angel, (compiled, result) = _angel_run(ctx)
        # Budget accounting survives: 1 + 2L probes were still submitted.
        assert result.copycats_executed == angel.expected_probe_count(
            compiled
        )
        ledgers = ctx.ledgers()
        # Transient faults fired and were retried.
        assert ledgers["remote"]["retries"] > 0
        assert ledgers["remote"]["failures"] == result.trace.num_failed
        assert ledgers["exec"]["fallbacks"] == len(result.degraded_links)

    def test_stress_profile_degrades_gracefully(self):
        """Permanent probe failures degrade links instead of aborting."""
        ctx = ExperimentContext.create(
            backend="remote",
            fault_profile=STRESS,
            fault_seed=2,
            retry_policy=RetryPolicy(
                max_attempts=1, breaker_threshold=1_000
            ),
        )
        angel, (compiled, result) = _angel_run(ctx)
        # The run completed without raising, spent the full 1 + 2L
        # budget, and the fault seed above is known to fail probes.
        assert result.copycats_executed == angel.expected_probe_count(
            compiled
        )
        assert result.trace.num_failed > 0
        assert result.degraded_links
        # Degraded links keep the calibration-fidelity (reference) gate.
        for link in result.degraded_links:
            assert result.sequence.gates_on_link(
                link
            ) == result.reference_sequence.gates_on_link(link)
        ledgers = ctx.ledgers()
        assert ledgers["remote"]["failures"] == result.trace.num_failed
        assert ledgers["exec"]["fallbacks"] == len(result.degraded_links)
        # Failed probes are auditable in the trace and excluded from
        # best(): the winner is always a measured probe.
        assert not result.trace.best().failed

    def test_total_outage_falls_back_to_reference_everywhere(self):
        """Every probe failing => the baseline policy is the answer."""
        ctx = ExperimentContext.create(
            backend="remote",
            fault_profile=FaultProfile(name="outage", p_reject=1.0),
            fault_seed=0,
            retry_policy=RetryPolicy(
                max_attempts=2,
                base_backoff_us=10.0,
                breaker_threshold=1_000_000,
            ),
        )
        angel, (compiled, result) = _angel_run(ctx)
        assert result.sequence.gates == result.reference_sequence.gates
        assert result.trace.num_failed == result.trace.num_probes
        assert set(result.degraded_links) == set(compiled.links_used())
        with pytest.raises(Exception):
            result.trace.best()  # nothing was ever measured

    def test_zero_fault_remote_matches_local_bit_for_bit(self):
        """Acceptance: no faults => remote ANGEL == local ANGEL."""
        ctx_remote = ExperimentContext.create(
            backend="remote", fault_profile="none"
        )
        ctx_local = ExperimentContext.create()
        _, (_, result_remote) = _angel_run(ctx_remote)
        _, (_, result_local) = _angel_run(ctx_local)
        assert result_remote.sequence.gates == result_local.sequence.gates
        assert [
            p.success_rate for p in result_remote.trace.probes
        ] == [p.success_rate for p in result_local.trace.probes]
        assert result_remote.degraded_links == ()
        assert ctx_remote.device.clock_us == ctx_local.device.clock_us
        remote = ctx_remote.ledgers()["remote"]
        assert remote["retries"] == 0
        assert remote["failures"] == 0

    def test_zero_fault_remote_fig18_runs_every_job_remotely(self):
        """Fig. 18 on the remote backend sends ANGEL's probes and the
        runtime-best enumeration through the cloud service, not only
        the final measurements; with no faults its rows and device
        clock equal the local run's."""
        budget = dict(
            benchmarks=["GHZ_n4", "BV_n4"],
            final_shots=64,
            probe_shots=16,
            runtime_best_shots=16,
        )
        ctx_local = ExperimentContext.create()
        ctx_remote = ExperimentContext.create(
            backend="remote", fault_profile="none"
        )
        local = fig18_main_evaluation(ctx_local, **budget)
        remote = fig18_main_evaluation(ctx_remote, **budget)
        assert remote.rows == local.rows
        assert ctx_remote.device.clock_us == ctx_local.device.clock_us
        ledgers = ctx_remote.ledgers()
        assert ledgers["exec"]["jobs_by_tag"] == {
            "probe": 14,
            "measure": 6,
            "enumerate": 54,
        }
        assert ledgers["service"]["completed"] == 74
        assert ctx_remote.device.shared_executor is ctx_remote.executor

    @pytest.mark.parametrize("experiment", sorted(REMOTE_ROUTED))
    def test_zero_fault_remote_experiment_runs_every_job_remotely(
        self, experiment
    ):
        """The context binds its executor to its device, so ANGEL
        probes built without an executor argument, and CDR's training
        and target jobs, go through the cloud service too; with no
        faults the rows and device clock equal the local run's."""
        run, budget = REMOTE_ROUTED[experiment]
        ctx_local = ExperimentContext.create()
        ctx_remote = ExperimentContext.create(
            backend="remote", fault_profile="none"
        )
        local = run(ctx_local, **budget)
        remote = run(ctx_remote, **budget)
        assert remote.rows == local.rows
        assert ctx_remote.device.clock_us == ctx_local.device.clock_us
        ledgers = ctx_remote.ledgers()
        assert ledgers["service"]["completed"] == ledgers["exec"]["jobs"]
        assert ledgers["exec"]["jobs"] == ctx_local.ledgers()["exec"]["jobs"]
        assert ctx_remote.device.shared_executor is ctx_remote.executor
