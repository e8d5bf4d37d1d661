"""Cross-device transfer study: does a winning sequence survive other chips?

The paper's Figs. 21/22 ask whether ANGEL's runtime-best sequence
survives *drift on one device*. This study asks the multi-device
version over N *replicas* — chip days of the same Aspen preset, each a
seed offset of the first: replica ``i`` is
``ExperimentContext.create(seed=seed + 1009*i, calibration_seed=
calibration_seed + 7*i, drift_hours=drift_hours + stagger_hours*i)``,
so it drifts independently and sits deeper into its calibration
window. Compile on replica 0, carry the winning native-gate sequence
to replicas 1..N-1, and ask two questions per replica:

* **survival** — does a replica-local ANGEL search (same probe budget,
  same search seed, the replica's own transpile) pick the *same*
  per-site native-gate choices? A survived sequence means replica 0's
  compile decision ships as-is; a dead one means the replica's drift
  has moved the optimum.
* **transfer cost** — how much exact success rate is lost by running
  replica 0's gate choices instead of the replica-local winner
  (``sr_local - sr_transfer``; zero when the sequence survived).

Both are reported against **drift divergence**: the mean absolute
difference between the replica's raw drift-process parameter state and
replica 0's, sampled at context creation (the
``parameter_state`` vector whose clipped values feed
``parameter_fingerprint``).

Replicas are independently sampled chips, so a gate replica 0 chose
may simply not exist on another replica's link (seeded missing-gate
fractions — the real cross-device hazard). Transferred choices fall
back to the replica's own calibration-reference gate at such sites;
the substitution count is reported per replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.angel import Angel, AngelConfig
from ..core.sequence import NativeGateSequence
from ..exceptions import ReproError
from ..programs import get_benchmark
from .context import ExperimentContext
from .reporting import ExperimentResult

__all__ = ["fleet_transfer_study"]

#: Seed strides between consecutive replicas. Any nonzero stride gives
#: an independent drift process; primes keep accidental collisions with
#: user-chosen seeds unlikely.
_SEED_STRIDE = 1009
_CALIBRATION_STRIDE = 7


def _divergence(
    base: Dict[Tuple, float], other: Dict[Tuple, float]
) -> float:
    """Mean |Δ| of the drift-process state over shared parameter keys."""
    shared = [key for key in base if key in other]
    if not shared:
        return 0.0
    return sum(abs(base[key] - other[key]) for key in shared) / len(shared)


def fleet_transfer_study(
    context: Optional[ExperimentContext] = None,
    replicas: int = 3,
    program: str = "GHZ_n4",
    probe_shots: int = 256,
    seed: int = 11,
    calibration_seed: int = 3,
    drift_hours: float = 2.0,
    stagger_hours: float = 6.0,
    angel_seed: int = 0,
    device_name: str = "aspen-11",
) -> ExperimentResult:
    """Compile on replica 0, re-score and re-learn on replicas 1..N-1.

    ``context`` is accepted for registry uniformity but unused — the
    study builds one private context per replica (each replica is its
    own chip-day).
    """
    del context  # each replica builds its own context
    if replicas < 1:
        raise ReproError("fleet_transfer needs at least one replica")
    replica_drift = [
        drift_hours + stagger_hours * index for index in range(replicas)
    ]
    contexts: List[ExperimentContext] = []
    try:
        states: List[Dict[Tuple, float]] = []
        for index in range(replicas):
            ctx = ExperimentContext.create(
                device_name=device_name,
                seed=seed + _SEED_STRIDE * index,
                calibration_seed=(
                    calibration_seed + _CALIBRATION_STRIDE * index
                ),
                drift_hours=replica_drift[index],
            )
            contexts.append(ctx)
            # Snapshot the pristine drift state (before any probe
            # advances the clock) so divergence is a property of the
            # replicas, not of the search traffic.
            states.append(dict(ctx.device.parameter_state()))

        config = AngelConfig(probe_shots=probe_shots, seed=angel_seed)
        circuit = get_benchmark(program).build()

        rows: List[Tuple] = []
        series: Dict[str, List[float]] = {
            "divergence": [],
            "sr_transfer": [],
            "sr_local": [],
        }
        winner_gates: Optional[Tuple[str, ...]] = None
        winner_label = ""
        survived_count = 0
        for index, ctx in enumerate(contexts):
            compiled = ctx.transpile(circuit)
            ideal = compiled.ideal_distribution()
            angel = Angel(ctx.device, ctx.calibration, config)
            result = angel.select(compiled)
            local = result.sequence
            if index == 0:
                winner_gates = local.gates
                winner_label = local.label()
            assert winner_gates is not None
            # Carry replica 0's per-site gate choices onto this
            # replica's compile; sites whose link lacks the gate fall
            # back to the replica's calibration-reference choice.
            options = compiled.gate_options()
            transfer_gates = []
            substituted = 0
            for position, site in enumerate(local.sites):
                desired = (
                    winner_gates[position]
                    if position < len(winner_gates)
                    else None
                )
                if desired is not None and desired in options[site.link]:
                    transfer_gates.append(desired)
                else:
                    transfer_gates.append(
                        result.reference_sequence.gates[position]
                    )
                    substituted += 1
            transfer = NativeGateSequence(
                local.sites, tuple(transfer_gates)
            )
            sr_transfer = ctx.exact_success_rate(
                compiled.nativized(transfer, name_suffix="_transfer"),
                ideal,
            )
            sr_local = ctx.exact_success_rate(
                compiled.nativized(local, name_suffix="_local"), ideal
            )
            divergence = _divergence(states[0], states[index])
            survived = substituted == 0 and local.gates == winner_gates
            if index > 0 and survived:
                survived_count += 1
            rows.append(
                (
                    f"replica-{index}",
                    replica_drift[index],
                    divergence,
                    "yes" if survived else "no",
                    substituted,
                    sr_transfer,
                    sr_local,
                    sr_local - sr_transfer,
                )
            )
            series["divergence"].append(divergence)
            series["sr_transfer"].append(sr_transfer)
            series["sr_local"].append(sr_local)
        others = replicas - 1
        survival_rate = survived_count / others if others else 1.0
        return ExperimentResult(
            experiment_id="fleet_transfer",
            title=(
                f"Cross-device transfer of {program}'s winning sequence "
                f"across {replicas} drifting replicas"
            ),
            columns=(
                "replica",
                "drift_h",
                "divergence",
                "survived",
                "substituted",
                "sr_transfer",
                "sr_local",
                "delta",
            ),
            rows=rows,
            series=series,
            notes=[
                f"compile replica: replica-0 (seed {seed}), winner "
                f"{winner_label}",
                f"stagger {stagger_hours:.1f}h between consecutive "
                f"replicas; probe_shots={probe_shots}, "
                f"angel_seed={angel_seed}",
                "each replica transpiles locally; replica-0's per-site "
                "gate choices transfer where the link supports them, "
                "else the replica's reference gate substitutes",
            ],
            summary=(
                f"winning sequence survived on {survived_count}/{others} "
                f"other replicas ({survival_rate:.0%}); max transfer "
                f"cost {max(r[7] for r in rows):.4f} SR"
            ),
        )
    finally:
        for ctx in contexts:
            ctx.close()
