"""The process-wide observability switchboard.

Instrumented call sites all follow the same three-line pattern::

    tr = runtime.active_tracer()
    span = tr.span("exec.batch", jobs=n) if tr else runtime.NULL_SPAN
    with span:
        ...
        if tr:
            span.set(shots=total)

When nothing is installed, ``active_tracer()`` returns ``None`` and the
site costs one function call plus an identity check — no span object,
no attribute dict, no context-manager allocation (``NULL_SPAN`` is one
shared reusable instance). ``benchmarks/bench_obs_overhead.py`` pins
that cost at < 2% of an uninstrumented GHZ-7 probe sweep.

Installation is explicit and scoped: the CLI and
``ExperimentContext`` install a tracer + registry for one run and
restore the previous pair on close, so a library embedder can nest
observed regions. ``observed(...)`` is the context-manager form tests
and notebooks use.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = [
    "NULL_SPAN",
    "active_tracer",
    "active_registry",
    "install",
    "uninstall",
    "observed",
    "event",
]


class _NullSpan:
    """Shared do-nothing stand-in so ``with`` sites stay uniform."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attributes) -> "_NullSpan":  # pragma: no cover
        return self

    def event(self, name, **attributes) -> None:  # pragma: no cover
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

_active_tracer: Optional[Tracer] = None
_active_registry: Optional[MetricsRegistry] = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _active_tracer


def active_registry() -> Optional[MetricsRegistry]:
    """The installed metrics registry, or ``None`` when metrics are off."""
    return _active_registry


def install(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Optional[Tracer], Optional[MetricsRegistry]]:
    """Make ``tracer``/``registry`` the process-wide active pair.

    Returns the previously active pair so the caller can restore it
    with :func:`uninstall` (LIFO discipline — see :func:`observed`).
    """
    global _active_tracer, _active_registry
    previous = (_active_tracer, _active_registry)
    _active_tracer = tracer
    _active_registry = registry
    return previous


def uninstall(
    previous: Tuple[Optional[Tracer], Optional[MetricsRegistry]] = (
        None,
        None,
    ),
) -> None:
    """Restore a previously active pair (default: fully off)."""
    global _active_tracer, _active_registry
    _active_tracer, _active_registry = previous


@contextmanager
def observed(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[Optional[Tracer], Optional[MetricsRegistry]]]:
    """Scope a tracer/registry pair over a block::

        with observed(Tracer(), MetricsRegistry()) as (tr, reg):
            angel.select(compiled)
        print(render_trace(tr.spans))
    """
    previous = install(tracer, registry)
    try:
        yield tracer, registry
    finally:
        uninstall(previous)


def event(name: str, **attributes) -> None:
    """Attach an event to the innermost open span, if tracing is on.

    The one-liner layers with no span of their own (the cloud service's
    fault injection, admission control) use to annotate whoever is
    currently measuring them.
    """
    if _active_tracer is not None:
        _active_tracer.event(name, **attributes)
