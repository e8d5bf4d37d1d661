"""Cross-device transfer study: does the winning sequence survive a fleet?

The paper's Figs. 21/22 ask whether ANGEL's runtime-best sequence
survives *drift on one device*. A device fleet poses the multi-device
version: compile on replica A, then carry the winning native-gate
sequence to replicas B..N — same Aspen preset, independent seeded
drift, staggered calibration cadences — and ask two questions per
replica:

* **survival** — does a replica-local ANGEL search (same probe budget,
  same search seed, the replica's own transpile) pick the *same*
  per-site native-gate choices? A survived sequence means replica A's
  compile decision ships as-is; a dead one means the replica's drift
  has moved the optimum.
* **transfer cost** — how much exact success rate is lost by running
  replica A's gate choices instead of the replica-local winner
  (``sr_local - sr_transfer``; zero when the sequence survived).

Both are reported against **drift divergence**: the mean absolute
difference between the replica's raw drift-process parameter state and
replica A's, sampled at context creation (the
``parameter_state`` vector whose clipped values feed
``parameter_fingerprint``).

Replicas are independently sampled chips, so a gate replica A chose
may simply not exist on replica B's link (seeded missing-gate
fractions — the real cross-device hazard). Transferred choices fall
back to the replica's own calibration-reference gate at such sites;
the substitution count is reported per replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..compiler import transpile
from ..core.angel import Angel, AngelConfig
from ..core.sequence import NativeGateSequence
from ..fleet import FleetSpec
from ..programs import get_benchmark
from .context import ExperimentContext
from .reporting import ExperimentResult

__all__ = ["fleet_transfer_study"]


@dataclass(frozen=True)
class _Recipe:
    """The device-build fields a replica adjustment applies to.

    A minimal stand-in for the service layer's ``RequestSpec`` (not
    imported here — experiments must stay importable without the
    service tier) with exactly the fields
    :meth:`~repro.fleet.ReplicaSpec.adjust` rewrites.
    """

    seed: int
    calibration_seed: int
    drift_hours: float
    fault_profile: str = "none"
    fault_seed: int = 0


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
    fleet = FleetSpec.create(replicas, stagger_hours=stagger_hours)
    base = _Recipe(
        seed=seed,
        calibration_seed=calibration_seed,
        drift_hours=drift_hours,
    )
    contexts: List[ExperimentContext] = []
    try:
        states: List[Dict[Tuple, float]] = []
        for replica_spec in fleet.replicas:
            recipe = replica_spec.adjust(base)
            ctx = ExperimentContext.create(
                device_name=device_name,
                seed=recipe.seed,
                calibration_seed=recipe.calibration_seed,
                drift_hours=recipe.drift_hours,
            )
            contexts.append(ctx)
            # Snapshot the pristine drift state (before any probe
            # advances the clock) so divergence is a property of the
            # fleet, not of the search traffic.
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
            compiled = transpile(circuit, ctx.device, ctx.calibration)
            ideal = compiled.ideal_distribution()
            angel = Angel(
                ctx.device, ctx.calibration, config, executor=ctx.executor
            )
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
                    fleet.replicas[index].name,
                    drift_hours
                    + fleet.replicas[index].drift_offset_hours,
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
