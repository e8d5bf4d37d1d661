"""Structured tracing: nested spans over the execution stack.

A :class:`Span` is one timed region of work — a search pass, one link's
candidate batch, a single probe job, a remote batch — with free-form
attributes and point-in-time events attached. A :class:`Tracer` owns a
stack of open spans, so regions opened inside other regions nest into a
tree without any caller threading parent ids around: ``angel.select``
contains ``search.pass`` contains ``search.link`` contains
``exec.batch`` contains one ``backend.job`` per probe.

Two clocks per span:

* **wall time** — host ``time.perf_counter`` seconds, what the user
  waits for;
* **device time** — the simulated device clock (microseconds), what the
  drift model sees. The tracer samples it through an optional
  ``clock_us`` callable so spans can attribute *simulated* occupancy
  (queue waits, backoffs, job durations) alongside host cost.

The disabled path is a hard ``None``: instrumented call sites fetch the
active tracer from :mod:`repro.obs.runtime` and skip all span
construction when none is installed (see ``runtime.NULL_SPAN`` for the
uniform ``with`` idiom). No tracer object, no attribute dict, no span
allocation — the overhead of a disabled site is one function call and
one identity check, pinned by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, TextIO, Union

__all__ = ["Span", "SpanEvent", "Tracer", "JsonlSpanSink"]


class SpanEvent:
    """A point-in-time annotation inside a span (a retry, a fault...)."""

    __slots__ = ("name", "wall_s", "device_us", "attributes")

    def __init__(
        self,
        name: str,
        wall_s: float,
        device_us: Optional[float],
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.wall_s = wall_s
        self.device_us = device_us
        self.attributes = attributes

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "wall_s": self.wall_s}
        if self.device_us is not None:
            data["device_us"] = self.device_us
        if self.attributes:
            data["attributes"] = self.attributes
        return data


class Span:
    """One timed region of work, produced by :meth:`Tracer.span`.

    Spans are context managers: entering pushes them on the tracer's
    stack (establishing parentage for anything opened inside), exiting
    stamps the end times and hands the finished span to the tracer's
    sink. ``set`` adds attributes at any point before exit; ``event``
    appends a timestamped annotation.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "events",
        "status",
        "start_wall_s",
        "end_wall_s",
        "start_device_us",
        "end_device_us",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.events: List[SpanEvent] = []
        self.status = "ok"
        self.start_wall_s = 0.0
        self.end_wall_s = 0.0
        self.start_device_us: Optional[float] = None
        self.end_device_us: Optional[float] = None

    # ------------------------------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append(
            SpanEvent(
                name,
                self._tracer._now_wall(),
                self._tracer._now_device(),
                attributes,
            )
        )

    # ------------------------------------------------------------------
    @property
    def wall_time_s(self) -> float:
        return self.end_wall_s - self.start_wall_s

    @property
    def device_time_us(self) -> Optional[float]:
        if self.start_device_us is None or self.end_device_us is None:
            return None
        return self.end_device_us - self.start_device_us

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation (one JSONL trace line)."""
        data: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "status": self.status,
            "start_wall_s": round(self.start_wall_s, 9),
            "wall_time_s": round(self.wall_time_s, 9),
        }
        if self.start_device_us is not None:
            data["start_device_us"] = self.start_device_us
            data["device_time_us"] = self.device_time_us
        if self.attributes:
            data["attributes"] = self.attributes
        if self.events:
            data["events"] = [event.to_dict() for event in self.events]
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, status={self.status!r})"
        )


class JsonlSpanSink:
    """Streams finished spans to a file as JSON lines.

    Accepts a path (opened lazily, closed by :meth:`close`) or an
    already-open text file object (left open — the caller owns it).
    Non-JSON-able attribute values (e.g. :class:`~repro.device.topology.
    Link` tuples) are coerced through ``str``.
    """

    def __init__(self, target: Union[str, "TextIO"]) -> None:
        self._path: Optional[str] = None
        self._file: Optional[TextIO] = None
        self._owns_file = False
        if isinstance(target, str):
            self._path = target
        else:
            self._file = target

    @property
    def path(self) -> Optional[str]:
        return self._path

    def write_span(self, span: Span) -> None:
        if self._file is None:
            self._file = open(self._path, "w", encoding="utf-8")
            self._owns_file = True
        json.dump(
            span.to_dict(),
            self._file,
            default=str,
            separators=(",", ":"),
        )
        self._file.write("\n")

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None and self._owns_file:
            self._file.close()
            self._file = None
            self._owns_file = False


class Tracer:
    """Produces nested spans; streams them to a sink and keeps a copy.

    Args:
        clock_us: Optional callable returning the simulated device clock
            in microseconds; when provided, every span and event carries
            device-time stamps alongside wall time.
        sink: Optional :class:`JsonlSpanSink` (or a path string, wrapped
            automatically) that finished spans stream to.
        keep_spans: Retain finished spans in :attr:`spans` (in finish
            order) for in-process inspection; disable for unbounded
            runs that only stream to a file.
        registry: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when set, every finished span feeds a per-name wall-time
            histogram (``span.<name>.wall_s``) and counter.
    """

    def __init__(
        self,
        clock_us: Optional[Callable[[], float]] = None,
        sink: Optional[Union[JsonlSpanSink, str]] = None,
        keep_spans: bool = True,
        registry=None,
    ) -> None:
        self.clock_us = clock_us
        if isinstance(sink, str):
            sink = JsonlSpanSink(sink)
        self.sink = sink
        self.keep_spans = keep_spans
        self.registry = registry
        self.spans: List[Span] = []
        # One open-span stack *per thread*: the multi-tenant service
        # runs instrumented request stacks on pool threads, and spans
        # opened on one thread must never nest under another thread's.
        # Finished spans still funnel into the shared list/sink under
        # ``_lock``, so a trace interleaves threads but never corrupts.
        self._stacks = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._origin = time.perf_counter()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def _now_wall(self) -> float:
        return time.perf_counter() - self._origin

    def _now_device(self) -> Optional[float]:
        return self.clock_us() if self.clock_us is not None else None

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """Open a new span (enter it with ``with``); nests under the
        innermost currently-open span."""
        stack = self._stack
        parent = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, name, span_id, parent, attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Attach an event to the innermost open span (dropped if no
        span is open — events never create spans)."""
        if self._stack:
            self._stack[-1].event(name, **attributes)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _push(self, span: Span) -> None:
        span.start_wall_s = self._now_wall()
        span.start_device_us = self._now_device()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end_wall_s = self._now_wall()
        span.end_device_us = self._now_device()
        # Tolerate exits out of order (an exception unwinding through
        # several instrumented frames): pop down to this span.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        self._finish(span)

    def _finish(self, span: Span) -> None:
        with self._lock:
            if self.keep_spans:
                self.spans.append(span)
            if self.sink is not None:
                self.sink.write_span(span)
        if self.registry is not None:
            self.registry.counter(f"span.{span.name}").add(1)
            histogram = self.registry.histogram(f"span.{span.name}.wall_s")
            units = span.attributes.get("units")
            if isinstance(units, int) and units > 1:
                # One span covers several units of work (a batch of
                # jobs); record the per-unit wall time once per unit so
                # percentiles compare batches of different sizes.
                histogram.observe_many(span.wall_time_s / units, units)
            else:
                histogram.observe(span.wall_time_s)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        """Flush and close the sink (open spans stay open — closing the
        tracer mid-trace is the caller's bug, not silently repaired)."""
        if self.sink is not None:
            self.sink.flush()
            self.sink.close()
