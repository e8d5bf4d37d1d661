"""The benchmark's four workloads: inputs, timed loops, checks, metrics.

Every workload drives the program through its public entry points only
(``AngelService``, ``run_standalone``, ``ExperimentContext.create``,
``transpile``, ``Angel``, ``runtime_best`` and the ``BatchExecutor``
methods) and generates its inputs from the seed alone:

* ``service_steady`` -- open loop, uniform arrivals at about
  ``STEADY_RATE`` into ``AngelService(num_workers=2, dedup=True)``,
  every request on the
  one shared chip-day recipe, so calibration and probe work repeat
  across requests (what probe dedup and a calibration memo exploit).
* ``service_burst`` -- bursts of one request per Table I program, all
  due at once, the next burst after the previous drains: service
  capacity and backlog drain.
* ``standalone_cold`` -- closed loop over ``run_standalone``, every
  request on its own chip day aged 30 h: nothing is shared, calibration
  dominates, and a memo or dedup must not slow the misses.
* ``paper_eval`` -- closed loop over the paper's Fig. 18 protocol on one
  aged context built during set-up: simulation and layout dominate,
  calibration runs only in set-up.

Programs come in rounds, each a seeded permutation of the eight Table I
programs, and the open-loop request count, the bursts and the closed
loops are whole rounds: a run's program mix, and so its latency
percentiles and rates, does not depend on the seed's draw or on how much
work fits in the time limit.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from repro.experiments import ExperimentContext
from repro.programs import get_benchmark
from repro.service import AdmissionError, AngelService, RequestSpec, run_standalone

clock = time.monotonic

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: The paper's Table I suite, the program mix of every workload.
TABLE_I = (
    "tele_n2", "lin_sol_n3", "toff_n3", "GHZ_n4",
    "VQE_n4", "BV_n4", "QEC_n4", "QAOA_n5",
)
TENANTS = ("tenant0", "tenant1", "tenant2", "tenant3")
#: The chip-day recipe every service request shares.
SHARED_RECIPE = {
    "device_name": "aspen-11",
    "seed": 11,
    "calibration_seed": 3,
    "drift_hours": 2.0,
    "shots": 256,
    "probe_shots": 64,
}
#: Set-up's warm-up request, on a chip day no workload uses.
WARMUP = RequestSpec(
    "tele_n2", shots=256, probe_shots=64, seed=7, calibration_seed=5,
    drift_hours=2.0,
)
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: About 60% of the 2-worker service's burst capacity, so the open loop
#: never builds a backlog. The request count is rounded to whole rounds
#: and the arrivals spread evenly over the run.
STEADY_RATE = 1.0
SERVICE_WORKERS = 2
#: The first burst fills the dedup store and runs slower; with three or
#: more bursts the median burst is a warm one.
MIN_BURSTS = 3
COLD_DRIFT_HOURS = 30.0
COLD_SHOTS = 256
COLD_PROBE_SHOTS = 64
PAPER_CONTEXT = {"seed": 23, "calibration_seed": 3, "drift_hours": 30.0}
PAPER_PROBE_SHOTS = 256
PAPER_RB_SHOTS = 256
PAPER_FINAL_SHOTS = 1024
#: Latency limit behind ``slo_attain`` (reported, not a gated metric).
SLO_S = 2.0
SR_TOLERANCE = 1e-6

#: End-to-end metrics: name -> unit. Bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "throughput_rps": "req/s",
    "evals_per_s": "evals/s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "context.create.busy_s": "s",
    "context.create.calls": "count",
    "calibration.full.busy_s": "s",
    "calibration.full.calls": "count",
    "calibration.refresh.busy_s": "s",
    "calibration.refresh.gates": "count",
    "device.advance.busy_s": "s",
    "compiler.transpile.busy_s": "s",
    "compiler.transpile.self_s": "s",
    "compiler.layout.busy_s": "s",
    "compiler.route.busy_s": "s",
    "compiler.schedule.busy_s": "s",
    "compiler.cnot_sites": "count",
    "compiler.links_used": "count",
    "core.copycat.busy_s": "s",
    "core.search.busy_s": "s",
    "core.runtime_best.sequences": "count",
    "core.probes": "count",
    "core.probe_budget_ratio": "ratio",
    "exec.busy_s": "s",
    "exec.calls": "count",
    "exec.jobs": "count",
    "exec.failed_jobs": "count",
    "sim.distribution.busy_s": "s",
    "sim.dist_hit_ratio": "ratio",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_p90_s": "s",
    "service.service_time_p50_s": "s",
    "service.dedup_ratio": "ratio",
    "service.rejected": "count",
    "generator.late_max_s": "s",
    "layers.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Op:
    """One request or program evaluation a workload attempted.

    ``due`` is when it was due to be sent (the schedule's time in an
    open loop, the previous completion in a closed loop); latency runs
    from ``due``, so a stall also counts against the requests behind it.
    ``unit`` groups the operations whose rate is measured together: a
    burst or a closed-loop round (one operation per program), or the
    whole open-loop window.
    """

    label: str
    unit: int
    due: float
    start: float
    end: float = math.nan
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    evals: int = 0
    outcome: object = None
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.end - self.due


@dataclass
class Run:
    """What one workload run measured."""

    workload: str
    seed: int
    params: Dict[str, object]
    setup_s: List[float]
    ops: List[Op]
    window: Tuple[float, float]
    peak_rss_mb: float


def _rounds(rng: random.Random, programs) -> Iterator[List[str]]:
    while True:
        order = list(programs)
        rng.shuffle(order)
        yield order


def _units(seconds: float, minimum: int = 1) -> Iterator[int]:
    """Unit indices for a time-limited loop: past ``minimum`` units, the
    next starts only if the last one's duration still fits in ``seconds``."""
    origin = clock()
    last = 0.0
    for unit in itertools.count():
        if unit >= minimum and (clock() - origin) + last > seconds:
            return
        started = clock()
        yield unit
        last = clock() - started


def _closed_loop_op(label, unit, due, tracer, call, evals) -> Op:
    """Run ``call`` as one closed-loop operation; failures are recorded.

    Spans it opens carry the request id ``"<unit>:<label>"``.
    """
    op = Op(label, unit, due=due, start=clock())
    scope = (
        tracer.request(f"{unit}:{label}") if tracer is not None
        else nullcontext()
    )
    try:
        with scope:
            op.outcome = call()
        op.evals = evals(op.outcome)
    except Exception as exc:  # noqa: BLE001 - a failed operation is data
        op.error = f"{type(exc).__name__}: {exc}"
    op.end = clock()
    op.queue_wait_s = op.start - op.due
    op.service_s = op.end - op.start
    return op


def _collect(ops: List[Op], handles) -> None:
    """Fill ops from resolved service handles (after ``drain``)."""
    for op, handle in zip(ops, handles):
        if handle is None:
            continue
        try:
            outcome = handle.result(timeout=0)
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            op.error = f"{type(exc).__name__}: {exc}"
        else:
            op.outcome = outcome
            op.evals = outcome.probes_run + 1
        op.end = handle.completed_at
        op.queue_wait_s = handle.queue_wait_s
        op.service_s = handle.service_time_s


def _outcome_problems(outcome, shots: int) -> List[str]:
    """Invariants every ``CompileOutcome`` must satisfy."""
    problems = []
    links = len(outcome.result.sequence.links_used())
    if outcome.probes_run != outcome.result.copycats_executed:
        problems.append(
            f"probes_run {outcome.probes_run} != copycats_executed "
            f"{outcome.result.copycats_executed}"
        )
    if outcome.probes_run > 1 + 2 * links:
        problems.append(f"{outcome.probes_run} probes > 1+2L ({links} links)")
    if sum(outcome.final_counts.values()) != shots:
        problems.append("final counts do not sum to shots")
    return problems


def _fail(op: Op, problems: List[str]) -> None:
    if problems and op.error is None:
        op.error = "wrong output: " + "; ".join(problems)


def load_expected() -> Dict[str, object]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class _Workload:
    name = ""

    def __init__(self, seed: int, programs: Tuple[str, ...]) -> None:
        self.seed = seed
        self.programs = tuple(programs)
        self.rounds = _rounds(random.Random(f"{self.name}/{seed}"), programs)


class _ServiceWorkload(_Workload):
    """Shared set-up and checks of the two ``AngelService`` workloads."""

    def setup(self) -> AngelService:
        run_standalone(WARMUP)
        return AngelService(num_workers=SERVICE_WORKERS, dedup=True)

    def close(self, service: AngelService) -> None:
        service.close(timeout=120)

    def submit(self, service, index: int, program: str, unit: int,
               due: float):
        op = Op(program, unit, due=due, start=clock())
        try:
            handle = service.submit(
                TENANTS[index % len(TENANTS)],
                RequestSpec(program, **SHARED_RECIPE),
            )
        except AdmissionError as exc:
            op.error = f"refused: {exc}"
            op.end = clock()
            handle = None
        return op, handle

    def check(self, service, ops: List[Op]) -> None:
        """Bit-identity with ``run_standalone`` and the pinned sequences."""
        expected = load_expected()["shared_recipe"]
        pinned = (
            expected["sequences"]
            if expected["recipe"] == SHARED_RECIPE
            else {}
        )
        references = {}
        for op in ops:
            if op.outcome is not None and op.outcome.spec not in references:
                references[op.outcome.spec] = run_standalone(op.outcome.spec)
        for op in ops:
            outcome = op.outcome
            if outcome is None:
                continue
            problems = _outcome_problems(outcome, SHARED_RECIPE["shots"])
            reference = references[outcome.spec]
            for label, mine, theirs in (
                ("sequence", outcome.result.sequence,
                 reference.result.sequence),
                ("trace", outcome.result.trace, reference.result.trace),
                ("final_counts", outcome.final_counts,
                 reference.final_counts),
                ("device_time_us", outcome.device_time_us,
                 reference.device_time_us),
            ):
                if mine != theirs:
                    problems.append(f"{label} differs from run_standalone")
            gates = pinned.get(op.label)
            if gates is not None and list(outcome.result.sequence.gates) != gates:
                problems.append("sequence differs from expected.json")
            _fail(op, problems)

    def params(self) -> Dict[str, object]:
        return {
            "recipe": SHARED_RECIPE,
            "programs": list(self.programs),
            "tenants": len(TENANTS),
            "num_workers": SERVICE_WORKERS,
            "dedup": True,
        }


class ServiceSteady(_ServiceWorkload):
    name = "service_steady"
    rate_per_s = STEADY_RATE

    def measure(self, service, seconds: float, tracer) -> List[Op]:
        rounds = max(1, round(STEADY_RATE * seconds / len(self.programs)))
        programs = [p for _ in range(rounds) for p in next(self.rounds)]
        self.rate_per_s = len(programs) / seconds
        ops, handles = [], []
        origin = clock()
        for index, program in enumerate(programs):
            due = origin + index / self.rate_per_s
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            op, handle = self.submit(service, index, program, 0, due)
            ops.append(op)
            handles.append(handle)
        service.drain(timeout=120)
        _collect(ops, handles)
        return ops

    def params(self) -> Dict[str, object]:
        params = super().params()
        params.update(
            loop="open", arrivals="uniform", rate_per_s=self.rate_per_s
        )
        return params


class ServiceBurst(_ServiceWorkload):
    name = "service_burst"

    def measure(self, service, seconds: float, tracer) -> List[Op]:
        ops: List[Op] = []
        for unit in _units(seconds, MIN_BURSTS):
            due = clock()
            burst, handles = [], []
            for program in next(self.rounds):
                op, handle = self.submit(service, len(ops) + len(burst),
                                         program, unit, due)
                burst.append(op)
                handles.append(handle)
            service.drain(timeout=120)
            _collect(burst, handles)
            ops.extend(burst)
        return ops

    def params(self) -> Dict[str, object]:
        params = super().params()
        params.update(loop="open", arrivals="burst", burst=len(self.programs))
        return params


class StandaloneCold(_Workload):
    name = "standalone_cold"

    def __init__(self, seed: int, programs: Tuple[str, ...]) -> None:
        super().__init__(seed, programs)
        self.chips = random.Random(f"{self.name}/{seed}/chips")

    def setup(self) -> None:
        run_standalone(WARMUP)

    def close(self, state) -> None:
        pass

    def spec(self, program: str) -> RequestSpec:
        return RequestSpec(
            program,
            shots=COLD_SHOTS,
            probe_shots=COLD_PROBE_SHOTS,
            seed=self.chips.randrange(1000, 1_000_000),
            calibration_seed=self.chips.randrange(1000, 1_000_000),
            drift_hours=COLD_DRIFT_HOURS,
        )

    def measure(self, state, seconds: float, tracer) -> List[Op]:
        ops: List[Op] = []
        due = clock()
        for unit in _units(seconds):
            for program in next(self.rounds):
                spec = self.spec(program)
                op = _closed_loop_op(
                    program, unit, due, tracer,
                    lambda: run_standalone(spec),
                    lambda outcome: outcome.probes_run + 1,
                )
                due = op.end
                ops.append(op)
        return ops

    def check(self, state, ops: List[Op]) -> None:
        for op in ops:
            if op.outcome is not None:
                _fail(op, _outcome_problems(op.outcome, COLD_SHOTS))

    def params(self) -> Dict[str, object]:
        return {
            "loop": "closed",
            "clients": 1,
            "programs": list(self.programs),
            "device_name": "aspen-11",
            "drift_hours": COLD_DRIFT_HOURS,
            "shots": COLD_SHOTS,
            "probe_shots": COLD_PROBE_SHOTS,
            "chip_seeds": "drawn per request from the workload seed",
        }


def paper_stream(
    seed: int, programs: Tuple[str, ...] = TABLE_I
) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """``(program, seeds)`` in evaluation order: rounds over ``programs``.

    ``seeds`` are the ANGEL search, runtime-best, and three final-run
    seeds of one evaluation.
    """
    rng = random.Random(f"paper_eval/{seed}")
    for order in _rounds(rng, programs):
        for program in order:
            yield program, tuple(rng.randrange(2**31) for _ in range(5))


def evaluate(context, program: str, seeds: Tuple[int, ...]) -> Dict[str, object]:
    """One Fig. 18 evaluation: transpile, select, runtime best, 3 SRs."""
    compiled = repro.transpile(
        get_benchmark(program).build(), context.device, context.calibration
    )
    ideal = compiled.ideal_distribution()
    angel = repro.Angel(
        context.device,
        context.calibration,
        repro.AngelConfig(probe_shots=PAPER_PROBE_SHOTS, seed=seeds[0]),
    )
    result = angel.select(compiled)
    best, evaluations = repro.runtime_best(
        compiled,
        shots=PAPER_RB_SHOTS,
        granularity="link",
        ideal=ideal,
        seed=seeds[1],
    )
    finals = [
        context.executor.submit(
            repro.Job(circuit, PAPER_FINAL_SHOTS, seed=seed, tag="measure")
        )
        for circuit, seed in zip(
            (
                compiled.nativized(result.reference_sequence, "_base"),
                angel.nativize(compiled, result),
                compiled.nativized(best.sequence, "_rbest"),
            ),
            seeds[2:],
        )
    ]
    return {
        "program": program,
        "angel": list(result.sequence.gates),
        "runtime_best": list(best.sequence.gates),
        "sr": [
            repro.success_rate_from_counts(ideal, final.counts)
            for final in finals
        ],
        "probes": result.copycats_executed,
        "trace_probes": result.trace.num_probes,
        "links": len(result.sequence.links_used()),
        "rb_sequences": len(evaluations),
        "rb_space": math.prod(
            len(options) for options in compiled.gate_options().values()
        ),
        "rb_best_is_max": best.success_rate
        == max(e.success_rate for e in evaluations),
        "final_shots": [sum(final.counts.values()) for final in finals],
    }


PUBLIC_FIELDS = ("program", "angel", "runtime_best", "sr")


class PaperEval:
    name = "paper_eval"

    def __init__(self, seed: int, programs: Tuple[str, ...]) -> None:
        self.seed = seed
        self.programs = tuple(programs)
        self.stream = paper_stream(seed, self.programs)

    def setup(self) -> ExperimentContext:
        run_standalone(WARMUP)
        return ExperimentContext.create(**PAPER_CONTEXT)

    def close(self, context: ExperimentContext) -> None:
        context.close()

    def measure(self, context, seconds: float, tracer) -> List[Op]:
        ops: List[Op] = []
        due = clock()
        for unit in _units(seconds):
            for _ in self.programs:
                program, seeds = next(self.stream)
                op = _closed_loop_op(
                    program, unit, due, tracer,
                    lambda: evaluate(context, program, seeds),
                    lambda r: r["probes"] + r["rb_sequences"] + len(r["sr"]),
                )
                due = op.end
                ops.append(op)
        return ops

    def check(self, context, ops: List[Op]) -> None:
        expected = load_expected()["paper_eval"]
        pinned = (
            expected["evaluations"]
            if expected["seed"] == self.seed
            and expected["context"] == PAPER_CONTEXT
            and self.programs == TABLE_I
            else []
        )
        for index, op in enumerate(ops):
            record = op.outcome
            if record is None:
                continue
            problems = []
            if record["probes"] != record["trace_probes"]:
                problems.append("copycats_executed != probes traced")
            if record["probes"] > 1 + 2 * record["links"]:
                problems.append("probes exceed 1+2L")
            if record["rb_sequences"] != record["rb_space"]:
                problems.append("runtime best skipped sequences")
            if not record["rb_best_is_max"]:
                problems.append("runtime best is not the maximum")
            if any(s != PAPER_FINAL_SHOTS for s in record["final_shots"]):
                problems.append("final counts do not sum to shots")
            if not all(0.0 <= sr <= 1.0 for sr in record["sr"]):
                problems.append("success rate outside [0, 1]")
            if index < len(pinned):
                want = pinned[index]
                if any(
                    record[key] != want[key]
                    for key in ("program", "angel", "runtime_best")
                ) or any(
                    abs(mine - theirs) > SR_TOLERANCE
                    for mine, theirs in zip(record["sr"], want["sr"])
                ):
                    problems.append(f"evaluation {index} differs from "
                                    "expected.json")
            _fail(op, problems)

    def params(self) -> Dict[str, object]:
        return {
            "loop": "closed",
            "clients": 1,
            "context": PAPER_CONTEXT,
            "programs": list(self.programs),
            "probe_shots": PAPER_PROBE_SHOTS,
            "runtime_best": {"granularity": "link", "shots": PAPER_RB_SHOTS},
            "final_runs": 3,
            "final_shots": PAPER_FINAL_SHOTS,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (ServiceSteady, ServiceBurst, StandaloneCold, PaperEval)
}


# ----------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    tracer=None,
    setups: int = SETUP_REPEATS,
    programs: Tuple[str, ...] = TABLE_I,
) -> Run:
    """Set up ``setups`` times, measure for ``seconds``, then check.

    Only the last set-up's state is measured. The tracer, when given,
    is active over set-up and measurement but not over the checks.
    ``programs`` replaces the Table I mix (the self-test runs two).
    """
    workload = WORKLOADS[name](seed, programs)
    setup_s: List[float] = []
    state = None
    with tracer if tracer is not None else nullcontext():
        for _ in range(setups):
            if state is not None:
                workload.close(state)
            started = clock()
            state = workload.setup()
            setup_s.append(clock() - started)
        try:
            started = clock()
            ops = workload.measure(state, seconds, tracer)
            window = (started, clock())
        except BaseException:
            workload.close(state)
            raise
    peak = peak_rss_mb()
    try:
        workload.check(state, ops)
    finally:
        workload.close(state)
    return Run(
        workload=name,
        seed=seed,
        params=workload.params(),
        setup_s=setup_s,
        ops=ops,
        window=window,
        peak_rss_mb=peak,
    )


def percentile(values: List[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def latencies(run: Run) -> List[float]:
    """Per-operation latency; a failed, refused or wrong operation counts
    with the run's whole wall time, so it misses every latency limit."""
    elapsed = run.window[1] - run.window[0]
    return [op.latency_s if op.error is None else elapsed for op in run.ops]


def unit_rates(run: Run) -> Tuple[List[float], List[float]]:
    """Completed operations and evaluations per second of each unit."""
    units: Dict[int, List[Op]] = {}
    for op in run.ops:
        units.setdefault(op.unit, []).append(op)
    ops_rates, eval_rates = [], []
    for members in units.values():
        span = max(op.end for op in members) - min(op.due for op in members)
        good = [op for op in members if op.error is None]
        ops_rates.append(len(good) / span)
        eval_rates.append(sum(op.evals for op in good) / span)
    return ops_rates, eval_rates


def end_to_end(run: Run) -> Dict[str, Tuple[float, int]]:
    """``{metric: (value, samples)}`` for every ``END_TO_END`` metric.

    Rates are the median over units (bursts, rounds, closed-loop
    requests; the open loop is one unit), so a few seconds of contention
    from other processes on the host move them less than a mean would.
    """
    ops_rates, eval_rates = unit_rates(run)
    latency = latencies(run)
    return {
        "setup_s": (statistics.median(run.setup_s), len(run.setup_s)),
        "latency_p50_s": (percentile(latency, 50), len(latency)),
        "throughput_rps": (statistics.median(ops_rates), len(ops_rates)),
        "evals_per_s": (statistics.median(eval_rates), len(eval_rates)),
        "peak_rss_mb": (run.peak_rss_mb, 1),
    }


def summary(run: Run) -> Dict[str, object]:
    """Counts reported beside the metrics (not gated)."""
    failed = sum(1 for op in run.ops if op.error is not None)
    latency = latencies(run)
    return {
        "attempted": len(run.ops),
        "failed": failed,
        "failed_frac": failed / len(run.ops),
        "latency_p90_s": percentile(latency, 90),
        "slo_s": SLO_S,
        "slo_attain": sum(1 for value in latency if value <= SLO_S)
        / len(latency),
        "errors": sorted({op.error for op in run.ops if op.error})[:5],
    }


def op_records(run: Run) -> List[Dict[str, object]]:
    """One row per operation, relative to the measured window."""
    origin = run.window[0]
    return [
        {
            "label": op.label,
            "unit": op.unit,
            "due_s": round(op.due - origin, 6),
            "latency_s": op.latency_s,
            "queue_wait_s": op.queue_wait_s,
            "service_s": op.service_s,
            "evals": op.evals,
            "error": op.error,
        }
        for op in run.ops
    ]


def per_layer(run: Run, tracer) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from a traced run's spans and counters."""
    table = tracer.layer_table()
    counters = tracer.counters
    outcomes = [
        op.outcome for op in run.ops
        if op.outcome is not None and hasattr(op.outcome, "dedup_hits")
    ]
    probes_run = sum(outcome.probes_run for outcome in outcomes)
    dist_lookups = counters["sim.dist_hits"] + counters["sim.dist_misses"]
    metrics = {
        "context.create.busy_s": table["context.create"]["busy_s"],
        "context.create.calls": table["context.create"]["calls"],
        "calibration.full.busy_s": table["calibration.full"]["busy_s"],
        "calibration.full.calls": table["calibration.full"]["calls"],
        "calibration.refresh.busy_s": table["calibration.refresh"]["busy_s"],
        "calibration.refresh.gates": table["calibration.refresh"]["items"],
        "device.advance.busy_s": table["device.advance"]["busy_s"],
        "compiler.transpile.busy_s": table["compiler.transpile"]["busy_s"],
        "compiler.transpile.self_s": table["compiler.transpile"]["self_s"],
        "compiler.layout.busy_s": table["compiler.layout"]["busy_s"],
        "compiler.route.busy_s": table["compiler.route"]["busy_s"],
        "compiler.schedule.busy_s": table["compiler.schedule"]["busy_s"],
        "compiler.cnot_sites": counters["compiler.cnot_sites"],
        "compiler.links_used": counters["compiler.links_used"],
        "core.copycat.busy_s": table["core.copycat"]["busy_s"],
        "core.search.busy_s": table["core.search"]["busy_s"],
        "core.runtime_best.sequences": table["core.runtime_best"]["items"],
        "core.probes": table["core.search"]["items"],
        "core.probe_budget_ratio": (
            counters["core.plan_probes"] / counters["core.plan_budget"]
            if counters["core.plan_budget"]
            else 0.0
        ),
        "exec.busy_s": table["exec"]["busy_s"],
        "exec.calls": table["exec"]["calls"],
        "exec.jobs": table["exec"]["items"],
        "exec.failed_jobs": counters["exec.failed_jobs"],
        "sim.distribution.busy_s": table["sim.distribution"]["busy_s"],
        "service.queue_wait_p50_s": percentile(
            [op.queue_wait_s for op in run.ops], 50
        ),
        "service.queue_wait_p90_s": percentile(
            [op.queue_wait_s for op in run.ops], 90
        ),
        "service.service_time_p50_s": percentile(
            [op.service_s for op in run.ops], 50
        ),
        "service.dedup_ratio": (
            sum(outcome.dedup_hits for outcome in outcomes) / probes_run
            if probes_run
            else 0.0
        ),
        "service.rejected": sum(
            1 for op in run.ops if (op.error or "").startswith("refused")
        ),
        "generator.late_max_s": max(op.start - op.due for op in run.ops),
        "layers.coverage": tracer.coverage(
            (op.due, op.end) for op in run.ops if op.error is None
        ),
        "trace.overhead_frac": tracer.overhead_frac(),
    }
    if not counters["sim.stats_missing"] and dist_lookups:
        metrics["sim.dist_hit_ratio"] = counters["sim.dist_hits"] / dist_lookups
    return metrics


def expected_outputs(paper_evaluations: int) -> Dict[str, object]:
    """The pinned outputs ``expected.json`` holds (default seed)."""
    sequences = {
        program: list(
            run_standalone(
                RequestSpec(program, **SHARED_RECIPE)
            ).result.sequence.gates
        )
        for program in TABLE_I
    }
    context = ExperimentContext.create(**PAPER_CONTEXT)
    try:
        stream = paper_stream(0)
        evaluations = []
        for program, seeds in itertools.islice(stream, paper_evaluations):
            record = evaluate(context, program, seeds)
            evaluations.append({key: record[key] for key in PUBLIC_FIELDS})
    finally:
        context.close()
    return {
        "shared_recipe": {"recipe": SHARED_RECIPE, "sequences": sequences},
        "paper_eval": {
            "seed": 0,
            "context": PAPER_CONTEXT,
            "evaluations": evaluations,
        },
    }
