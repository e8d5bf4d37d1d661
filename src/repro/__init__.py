"""repro — ANGEL: Application-specific Native Gate Selection (HPCA 2023).

A from-scratch reproduction of "The Imitation Game: Leveraging CopyCats
for Robust Native Gate Selection in NISQ Programs" (Das, Kessler, Shi;
HPCA 2023), including every substrate the paper depends on:

* a quantum circuit IR with OpenQASM round-tripping
  (:mod:`repro.circuit`);
* state-vector, density-matrix (noisy), and CHP stabilizer simulators
  (:mod:`repro.sim`);
* a simulated Rigetti Aspen device with three two-qubit native gates,
  drifting per-link physics, and vendor-style calibration with per-gate
  refresh cadence (:mod:`repro.device`);
* a NISQ compiler — mapping, SWAP routing, scheduling, nativization
  (:mod:`repro.compiler`);
* ANGEL itself — CopyCats and the localized native-gate search
  (:mod:`repro.core`);
* an execution service between the algorithms and the device — batched
  probe jobs, pluggable backends, per-phase accounting
  (:mod:`repro.exec`);
* the paper's benchmark suite (:mod:`repro.programs`) and every
  figure/table as a reproducible experiment (:mod:`repro.experiments`).

Quickstart::

    from repro import Angel, AngelConfig, Job, transpile, ghz
    from repro.experiments import ExperimentContext, ledgers_to_text

    ctx = ExperimentContext.create()          # aged Aspen-11
    compiled = transpile(ghz(4), ctx.device, ctx.calibration)
    angel = Angel(ctx.device, ctx.calibration, AngelConfig(seed=7))
    result = angel.select(compiled)           # 1 + 2L CopyCat probes
    program = angel.nativize(compiled, result)
    counts = ctx.executor.submit(Job(program, shots=4096)).counts
    print(ledgers_to_text(ctx.ledgers()))     # probe vs final cost

See README.md for the architecture overview, DESIGN.md for the
paper-to-module map, and EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

from .circuit import Gate, QuantumCircuit, from_qasm, to_qasm
from .compiler import CompiledProgram, transpile
from .core import (
    Angel,
    AngelConfig,
    AngelResult,
    CopyCat,
    NativeGateSequence,
    build_copycat,
    enumerate_sequences,
    localized_search,
    noise_adaptive_sequence,
    random_sequence,
    runtime_best,
)
from .device import (
    CalibrationService,
    RigettiAspenDevice,
    aspen11,
    aspen_m1,
    build_device,
    small_test_device,
)
from .exec import (
    Backend,
    BatchExecutor,
    ExecutorStats,
    Job,
    JobResult,
    LocalBackend,
    get_executor,
)
from .obs import (
    JsonlSpanSink,
    MetricsRegistry,
    Span,
    Tracer,
    observed,
    read_trace,
    render_trace,
)
from .metrics import (
    geometric_mean,
    hellinger_fidelity,
    spearman_correlation,
    success_rate,
    success_rate_from_counts,
    total_variation_distance,
)
from .programs import benchmark_suite, get_benchmark, ghz
from .service import (
    CloudQPUService,
    FaultProfile,
    RemoteBackend,
    RetryPolicy,
    fault_profile,
)

__all__ = [
    "__version__",
    # circuit IR
    "Gate",
    "QuantumCircuit",
    "to_qasm",
    "from_qasm",
    # compiler
    "transpile",
    "CompiledProgram",
    # ANGEL core
    "Angel",
    "AngelConfig",
    "AngelResult",
    "CopyCat",
    "build_copycat",
    "NativeGateSequence",
    "enumerate_sequences",
    "localized_search",
    "noise_adaptive_sequence",
    "random_sequence",
    "runtime_best",
    # device
    "RigettiAspenDevice",
    "CalibrationService",
    "aspen11",
    "aspen_m1",
    "build_device",
    "small_test_device",
    # execution service
    "Backend",
    "LocalBackend",
    "Job",
    "JobResult",
    "BatchExecutor",
    "ExecutorStats",
    "get_executor",
    # cloud QPU service emulation
    "CloudQPUService",
    "FaultProfile",
    "fault_profile",
    "RemoteBackend",
    "RetryPolicy",
    # observability
    "Tracer",
    "Span",
    "JsonlSpanSink",
    "MetricsRegistry",
    "observed",
    "read_trace",
    "render_trace",
    # metrics
    "success_rate",
    "success_rate_from_counts",
    "total_variation_distance",
    "hellinger_fidelity",
    "spearman_correlation",
    "geometric_mean",
    # programs
    "benchmark_suite",
    "get_benchmark",
    "ghz",
]
