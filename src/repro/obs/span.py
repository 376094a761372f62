"""The span API: context-propagated timing of named request stages.

A *span* measures one named stage (``parse``, ``queue_wait``, ``compute``,
``evaluate_graph``, ...) of a *trace* (one request, one bench run).  Spans
carry a wall-clock start for alignment across threads but measure their
duration on the monotonic ``perf_counter`` clock, link to their parent
span, and hold a bounded tag dict for profiling counters (cache hits,
refinement passes, search states -- attached by the layer that knows them).

Propagation is a :mod:`contextvars` variable holding ``(trace_id,
span_id)``: :func:`span` reads it to find its parent and sets itself as the
context for the code it wraps, which follows ``await`` chains and task
creation automatically.  The one place asyncio does *not* propagate
context -- ``run_in_executor`` threads -- captures :func:`current_context`
explicitly and re-enters it with :func:`activate` on the far side (see
:mod:`repro.service.workers`).

A span with no context and no explicit ``trace_id`` is a **no-op**: the
service layers are instrumented unconditionally, but direct library calls
(tests, the plain CLI paths) record nothing and pay only a context-var
read.  Tracing can also be disabled wholesale (``REPRO_TRACE=0`` or
:func:`set_tracing`), which the overhead benchmark uses to measure the
spans-on vs spans-off delta.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional, Tuple

from .recorder import SpanRecorder, default_recorder

__all__ = [
    "MAX_TAGS_PER_SPAN",
    "SPAN_SCHEMA_KEYS",
    "Span",
    "activate",
    "current_context",
    "new_trace_id",
    "record_span",
    "set_tracing",
    "span",
    "tracing_enabled",
]

#: Every finished span dict has exactly these keys, in this order -- the
#: schema contract the tracing tests check.
SPAN_SCHEMA_KEYS = (
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start_s",
    "duration_ms",
    "pid",
    "tags",
)

#: Hard cap on tags per span; further ``set_tag`` calls are ignored.
MAX_TAGS_PER_SPAN = 16

#: Environment switch: ``REPRO_TRACE=0`` starts the process with tracing off.
TRACE_ENV_VAR = "REPRO_TRACE"

#: ``(trace_id, span_id)`` of the innermost active span, or ``None``.
_CONTEXT: "ContextVar[Optional[Tuple[str, Optional[str]]]]" = ContextVar(
    "repro_obs_context", default=None
)

_enabled = os.environ.get(TRACE_ENV_VAR, "1").strip().lower() not in (
    "0",
    "off",
    "false",
    "no",
)

_span_serial = itertools.count(1)


def tracing_enabled() -> bool:
    return _enabled


def set_tracing(enabled: bool) -> bool:
    """Enable/disable span recording process-wide; returns the prior setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def new_trace_id(prefix: str = "cli") -> str:
    """A fresh root trace id for offline use (bench --profile, sweep --trace-out)."""
    return f"{prefix}-{os.urandom(4).hex()}"


def _new_span_id() -> str:
    # a process-local serial, prefixed by the pid so ids stay distinct
    # across processes that append to one JSONL sink
    return f"{os.getpid():x}.{next(_span_serial):x}"


def current_context() -> Optional[Tuple[str, Optional[str]]]:
    """The propagation token ``(trace_id, span_id)`` to carry across executors."""
    return _CONTEXT.get()


@contextmanager
def activate(context: Optional[Tuple[str, Optional[str]]]) -> Iterator[None]:
    """Adopt a captured context in a thread the contextvar missed."""
    if context is None:
        yield
        return
    token = _CONTEXT.set(tuple(context))
    try:
        yield
    finally:
        _CONTEXT.reset(token)


class Span:
    """A live span handle; becomes a plain dict when it closes.

    ``recording`` is ``False`` for the shared no-op span, so callers can
    skip expensive tag computation (counter snapshots) entirely.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "recording", "tags", "_start_s", "_t0")

    def __init__(
        self,
        name: str,
        trace_id: Optional[str],
        parent_id: Optional[str],
        *,
        recording: bool,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.span_id = _new_span_id() if recording else None
        self.recording = recording
        self.tags: Dict[str, Any] = {}
        self._start_s = time.time() if recording else 0.0
        self._t0 = time.perf_counter() if recording else 0.0

    def set_tag(self, key: str, value: Any) -> None:
        if self.recording and (key in self.tags or len(self.tags) < MAX_TAGS_PER_SPAN):
            self.tags[key] = value

    def add_tags(self, mapping: Dict[str, Any]) -> None:
        for key, value in mapping.items():
            self.set_tag(key, value)

    def _finish(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self._start_s, 6),
            "duration_ms": round((time.perf_counter() - self._t0) * 1000.0, 3),
            "pid": os.getpid(),
            "tags": self.tags,
        }


_NULL_SPAN = Span("", None, None, recording=False)


@contextmanager
def span(
    name: str,
    *,
    trace_id: Optional[str] = None,
    tags: Optional[Dict[str, Any]] = None,
    recorder: Optional[SpanRecorder] = None,
) -> Iterator[Span]:
    """Measure the wrapped block as one span of the active (or given) trace.

    With ``trace_id`` the span is a *root* (a new trace); otherwise the
    parent comes from the ambient context.
    No context and no ``trace_id`` -- or tracing disabled -- yields the
    shared no-op span and records nothing.
    """
    if not _enabled:
        yield _NULL_SPAN
        return
    if trace_id is not None:
        parent_id: Optional[str] = None
    else:
        context = _CONTEXT.get()
        if context is None:
            yield _NULL_SPAN
            return
        trace_id, parent_id = context
    live = Span(name, trace_id, parent_id, recording=True)
    if tags:
        live.add_tags(tags)
    token = _CONTEXT.set((trace_id, live.span_id))
    try:
        yield live
    finally:
        _CONTEXT.reset(token)
        (recorder if recorder is not None else default_recorder).record(live._finish())


def record_span(
    name: str,
    *,
    start_s: float,
    duration_ms: float,
    context: Optional[Tuple[str, Optional[str]]],
    tags: Optional[Dict[str, Any]] = None,
    recorder: Optional[SpanRecorder] = None,
) -> None:
    """Record an already-measured span (e.g. queue wait timed across threads).

    ``context`` is the *parent* ``(trace_id, span_id)``; ``None`` (or
    tracing disabled) records nothing.
    """
    if not _enabled or context is None:
        return
    trace_id, parent_id = context
    (recorder if recorder is not None else default_recorder).record(
        {
            "trace_id": trace_id,
            "span_id": _new_span_id(),
            "parent_id": parent_id,
            "name": name,
            "start_s": round(start_s, 6),
            "duration_ms": round(duration_ms, 3),
            "pid": os.getpid(),
            "tags": dict(tags) if tags else {},
        }
    )
