"""Quickstart: compile a program with ANGEL and measure the improvement.

This walks the full pipeline of the paper's Fig. 10 on a simulated
Rigetti Aspen-11:

1. build the device and let a vendor-style calibration service age
   (XY/CZ refresh every 4h, CPHASE every 24h — so its records are stale);
2. transpile a GHZ program (map -> route -> schedule);
3. let ANGEL build a CopyCat and learn the best native gate sequence
   with 1 + 2L probe circuits;
4. execute the program under the noise-adaptive baseline sequence and
   under ANGEL's learned sequence, and compare success rates.

Run:  python examples/quickstart.py
"""

from repro.compiler import transpile
from repro.core import Angel, AngelConfig
from repro.exec import Job
from repro.experiments import ExperimentContext, ledgers_to_text
from repro.metrics import success_rate_from_counts
from repro.programs import ghz_n4


def main() -> None:
    # A simulated Aspen-11 whose last full calibration is 30h old.
    context = ExperimentContext.create(seed=23, drift_hours=30.0)
    device, calibration = context.device, context.calibration
    print(f"device: {device.name} ({device.topology.num_qubits} qubits, "
          f"{device.topology.num_links} links)")
    print(f"CPHASE calibration staleness: "
          f"{context.service.staleness_us('cphase') / 3.6e9:.1f} hours")

    # Compile: mapping, routing, scheduling. Native gates not chosen yet.
    program = ghz_n4()
    compiled = transpile(program, device, calibration)
    print(f"\nprogram: {program.name} -> {compiled.num_cnot_sites} CNOT "
          f"sites on links {compiled.links_used()}")

    # ANGEL: CopyCat + localized search on the device.
    angel = Angel(device, calibration, AngelConfig(probe_shots=1024, seed=7))
    result = angel.select(compiled)
    print(f"\nCopyCat pure Clifford: {result.copycat.is_pure_clifford}")
    print(f"probes executed: {result.copycats_executed} "
          f"(1 + 2L = {angel.expected_probe_count(compiled)})")
    print(f"reference sequence (noise-adaptive): "
          f"{result.reference_sequence.label()}")
    print(f"learned sequence:                    {result.sequence.label()}")

    # Final comparison on the actual program, via the execution service.
    ideal = compiled.ideal_distribution()
    shots = 4096
    executor = context.executor
    baseline_counts = executor.submit(
        Job(
            compiled.nativized(result.reference_sequence, name_suffix="_base"),
            shots,
            tag="final",
        )
    ).counts
    angel_counts = executor.submit(
        Job(angel.nativize(compiled, result), shots, tag="final")
    ).counts
    baseline_sr = success_rate_from_counts(ideal, baseline_counts)
    angel_sr = success_rate_from_counts(ideal, angel_counts)
    print(f"\nbaseline (noise-adaptive) SR: {baseline_sr:.3f}")
    print(f"ANGEL SR:                     {angel_sr:.3f} "
          f"({angel_sr / baseline_sr:.2f}x)")
    print("\nexecution-service ledger:")
    print(ledgers_to_text(context.ledgers()))


if __name__ == "__main__":
    main()
