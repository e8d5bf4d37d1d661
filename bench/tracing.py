"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` rebinds each layer's public entry points (the
``TARGETS`` table) to timing wrappers for the duration of a ``with``
block. Every class attribute and every module-global binding that *is*
an original function is rebound, so callers that imported the name
directly (``from ..compiler.passes import transpile``) are traced too,
and every binding is restored on exit.

Spans are plain dicts ``{id, name, layer, start, end, parent, thread,
request}`` kept on per-thread stacks while open and in one list once
closed; :meth:`LayerTracer.write_jsonl` writes them out at the end.
A span is *outer* when no span of the same layer encloses it on its
thread (``BatchExecutor.submit`` calls ``submit_batch``): only outer
spans count towards a layer's calls, items and busy time, so nothing is
counted twice. A layer's self time is its busy time minus the time its
directly nested spans of other layers cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

clock = time.monotonic

#: (layer, module, qualified name) of every wrapped entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("context.create", "repro.experiments.context", "ExperimentContext.create"),
    ("calibration.full", "repro.device.calibration",
     "CalibrationService.full_calibration"),
    ("calibration.refresh", "repro.device.calibration",
     "CalibrationService.maybe_recalibrate"),
    ("device.advance", "repro.device.device", "RigettiAspenDevice.advance_time"),
    ("compiler.transpile", "repro.compiler.passes", "transpile"),
    ("compiler.optimize", "repro.compiler.optimize", "optimize_circuit"),
    ("compiler.layout", "repro.compiler.mapping", "noise_adaptive_layout"),
    ("compiler.route", "repro.compiler.routing", "route_circuit"),
    ("compiler.schedule", "repro.compiler.scheduling", "asap_schedule"),
    ("core.copycat", "repro.core.copycat", "build_copycat"),
    ("core.copycat", "repro.core.copycat", "CopyCat.ideal_distribution"),
    ("core.search", "repro.core.angel", "AngelProbePlan.deliver"),
    ("core.runtime_best", "repro.core.policies", "runtime_best"),
    ("exec", "repro.exec.executor", "BatchExecutor.submit"),
    ("exec", "repro.exec.executor", "BatchExecutor.submit_batch"),
    ("exec", "repro.exec.executor", "BatchExecutor.submit_grouped"),
    ("sim.distribution", "repro.sim.sim_cache", "SimulationCache.distribution"),
    ("sim.distribution", "repro.sim.sim_cache",
     "SimulationCache.distribution_batch"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _sim_hits(cache) -> Optional[Tuple[int, int]]:
    """Memo hits and misses from ``SimulationCache.stats()``, or ``None``
    when that API is gone (the hit ratio is then reported missing)."""
    try:
        stats = cache.stats()
        return stats["dist_hits"], stats["dist_misses"]
    except (AttributeError, KeyError, TypeError):
        return None


class LayerTracer:
    """Wraps the ``TARGETS`` while active and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.started: Optional[float] = None
        self.stopped: Optional[float] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._overhead_cells: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Request attribution
    # ------------------------------------------------------------------
    @contextmanager
    def request(self, request_id: object):
        """Tag spans opened on this thread inside the block."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    # ------------------------------------------------------------------
    # Installing and restoring the wrappers
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements: Dict[int, Tuple[object, object]] = {}
        for layer, module_name, qualname in TARGETS:
            owner: object = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            replacements[id(raw)] = (raw, self._wrap_raw(layer, qualname, raw))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            self._rebind(module, replacements)
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for value in list(namespace.values()):
                if (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                ):
                    self._rebind(value, replacements)
        self.started = clock()

    def uninstall(self) -> None:
        self.stopped = clock()
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _rebind(self, owner: object, replacements) -> None:
        for name, value in list(vars(owner).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                self._patches.append((owner, name, value))
                setattr(owner, name, hit[1])

    def _wrap_raw(self, layer: str, qualname: str, raw: object) -> object:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(layer, qualname, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(layer, qualname, raw.__func__))
        return self._wrap(layer, qualname, raw)

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.overhead = [0.0]
            with self._lock:
                self._overhead_cells.append(local.overhead)
        return local, stack

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        before_hook, after_hook = _HOOKS.get(qualname, (None, None))
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            local, stack = self._thread_state()
            outer = all(open_span["layer"] != layer for open_span in stack)
            span = {
                "id": next(self._ids),
                "name": qualname,
                "layer": layer,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.current_thread().name,
                "request": getattr(local, "request", None),
                "outer": outer,
            }
            before = before_hook(args) if outer and before_hook else None
            stack.append(span)
            span["start"] = called = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = returned = clock()
                stack.pop()
                spans.append(span)
            if outer:
                items = (
                    after_hook(self, args, kwargs, result, before)
                    if after_hook
                    else 1
                )
                with self._lock:
                    self.counters[f"{layer}.items"] += items
            local.overhead[0] += (called - entered) + (clock() - returned)
            return result

        return traced

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def overhead_s(self) -> float:
        """Wrapper bookkeeping time, summed over threads."""
        return sum(cell[0] for cell in self._overhead_cells)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, items, busy_s, self_s}}`` over outer spans."""
        by_id = {span["id"]: span for span in self.spans}
        table = {
            layer: {
                "calls": 0,
                "items": self.counters.get(f"{layer}.items", 0),
                "busy_s": 0.0,
                "self_s": 0.0,
            }
            for layer in LAYERS
        }
        for span in self.spans:
            if not span["outer"]:
                continue
            duration = span["end"] - span["start"]
            row = table[span["layer"]]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration
            parent = span["parent"]
            while parent is not None and not by_id[parent]["outer"]:
                parent = by_id[parent]["parent"]
            if parent is not None:
                table[by_id[parent]["layer"]]["self_s"] -= duration
        return table

    def coverage(self, intervals: Iterable[Tuple[float, float]]) -> float:
        """Share of the request intervals that top-level spans cover."""
        requests = merge_intervals(intervals)
        total = sum(end - start for start, end in requests)
        if total <= 0:
            return 0.0
        top = merge_intervals(
            (span["start"], span["end"])
            for span in self.spans
            if span["parent"] is None
        )
        return overlap(top, requests) / total

    def overhead_frac(self) -> float:
        """Bookkeeping time over the traced wall time without it."""
        if self.started is None or self.stopped is None:
            return 0.0
        overhead = self.overhead_s
        untraced = (self.stopped - self.started) - overhead
        return overhead / untraced if untraced > 0 else 0.0

    def write_jsonl(self, path) -> None:
        origin = self.started or 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                record = dict(span)
                record["start"] = round(span["start"] - origin, 9)
                record["end"] = round(span["end"] - origin, 9)
                handle.write(json.dumps(record) + "\n")


def merge_intervals(
    intervals: Iterable[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def overlap(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Total length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


# ----------------------------------------------------------------------
# Item counts read from arguments and return values (outer spans only)
# ----------------------------------------------------------------------
def _exec_batch(tracer, args, kwargs, result, before) -> int:
    tracer.count("exec.failed_jobs", sum(1 for r in result if r is None))
    return len(result)


def _exec_grouped(tracer, args, kwargs, result, before) -> int:
    flat = [r for group in result for r in group]
    tracer.count("exec.failed_jobs", sum(1 for r in flat if r is None))
    return len(flat)


def _transpile(tracer, args, kwargs, result, before) -> int:
    tracer.count("compiler.cnot_sites", result.num_cnot_sites)
    tracer.count("compiler.links_used", len(result.links_used()))
    return result.num_cnot_sites


def _refresh(tracer, args, kwargs, result, before) -> int:
    return len(result)


def _deliver(tracer, args, kwargs, result, before) -> int:
    plan, results = args[0], args[1]
    if plan.done:
        links = len(plan.compiled.links_used())
        tracer.count("core.plans", 1)
        tracer.count("core.plan_probes", plan.probes_run)
        tracer.count("core.plan_budget", 1 + 2 * links)
    return len(results)


def _runtime_best(tracer, args, kwargs, result, before) -> int:
    return len(result[1])


def _sim_before(args) -> Optional[Tuple[int, int]]:
    return _sim_hits(args[0])


def _sim_after(tracer, args, kwargs, result, before) -> int:
    after = _sim_hits(args[0])
    if before is None or after is None:
        tracer.count("sim.stats_missing", 1)
    else:
        tracer.count("sim.dist_hits", after[0] - before[0])
        tracer.count("sim.dist_misses", after[1] - before[1])
    return len(result) if isinstance(result, list) else 1


#: Entry points without a hook count one item per outer call
#: (``BatchExecutor.submit`` runs exactly one job and raises on failure).
_HOOKS = {
    "BatchExecutor.submit_batch": (None, _exec_batch),
    "BatchExecutor.submit_grouped": (None, _exec_grouped),
    "transpile": (None, _transpile),
    "CalibrationService.maybe_recalibrate": (None, _refresh),
    "AngelProbePlan.deliver": (None, _deliver),
    "runtime_best": (None, _runtime_best),
    "SimulationCache.distribution": (_sim_before, _sim_after),
    "SimulationCache.distribution_batch": (_sim_before, _sim_after),
}
