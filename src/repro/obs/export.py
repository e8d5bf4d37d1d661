"""Trace/metric readers and human-readable renderers.

The wire format is JSON lines — one finished span per line, in finish
order (children before parents, since a span finishes before the region
that opened it). :func:`read_trace` loads a file back into dicts;
:func:`render_trace` turns spans (live :class:`~repro.obs.tracer.Span`
objects or loaded dicts) into the indented tree the CLI prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from .tracer import Span

__all__ = ["read_trace", "render_trace"]

#: Span attributes promoted into the rendered summary column.
_SUMMARY_KEYS = ("jobs", "shots", "tag", "link", "candidates")


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file into span dicts (finish order)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as file:
        for line in file:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _as_dicts(
    spans: Iterable[Union[Span, Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    return [
        span.to_dict() if isinstance(span, Span) else span for span in spans
    ]


def render_trace(
    spans: Iterable[Union[Span, Dict[str, Any]]],
    max_events: int = 3,
) -> str:
    """An indented tree, one line per span, roots in start order.

    Each line shows the span name, wall time, simulated device time
    (when the tracer had a device clock), a short attribute summary,
    and up to ``max_events`` event names.
    """
    records = _as_dicts(spans)
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for record in records:
        children.setdefault(record.get("parent_id"), []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("start_wall_s", 0.0))

    lines: List[str] = []

    def walk(record: Dict[str, Any], depth: int) -> None:
        parts = [f"{'  ' * depth}{record['name']}"]
        parts.append(f"{record.get('wall_time_s', 0.0) * 1e3:.2f} ms")
        if record.get("device_time_us") is not None:
            parts.append(f"{record['device_time_us']:.0f} us device")
        attributes = record.get("attributes", {})
        summary = ", ".join(
            f"{key}={attributes[key]}"
            for key in _SUMMARY_KEYS
            if key in attributes
        )
        if summary:
            parts.append(summary)
        if record.get("status") != "ok":
            parts.append(f"status={record.get('status')}")
        events = record.get("events", [])
        if events:
            shown = ", ".join(e["name"] for e in events[:max_events])
            suffix = "..." if len(events) > max_events else ""
            parts.append(f"[{shown}{suffix}]")
        lines.append("  ".join(parts))
        for child in children.get(record["span_id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
