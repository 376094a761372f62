"""Bounded in-memory storage of finished spans, with an optional JSONL sink.

The recorder is the passive half of :mod:`repro.obs`: :mod:`repro.obs.span`
produces finished span dicts and hands them here.  One process-global
:data:`default_recorder` is shared by every layer of the service (server,
batch coordinator, compute pool), so a single trace id collects spans from
all of them.

Memory is hard-capped in both dimensions:

* at most ``max_traces`` traces are retained -- a new trace evicts the
  oldest (insertion order), and every span lost to eviction counts as
  *dropped*;
* at most ``max_spans_per_trace`` spans are kept per trace -- further
  spans of that trace are dropped (and counted) rather than stored.

The ``dropped`` counter is monotone and surfaces as the
``repro_trace_dropped_total`` metric, so a long-running ``serve`` under
stress degrades visibly instead of growing without bound.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

__all__ = [
    "DEFAULT_MAX_SPANS_PER_TRACE",
    "DEFAULT_MAX_TRACES",
    "SpanRecorder",
    "default_recorder",
]

#: Traces retained by a recorder before the oldest is evicted.
DEFAULT_MAX_TRACES = 256
#: Spans retained per trace before further spans of it are dropped.
DEFAULT_MAX_SPANS_PER_TRACE = 200


class SpanRecorder:
    """A ring of recent traces: ``trace_id -> [finished span dicts]``."""

    def __init__(
        self,
        *,
        max_traces: int = DEFAULT_MAX_TRACES,
        max_spans_per_trace: int = DEFAULT_MAX_SPANS_PER_TRACE,
    ) -> None:
        if max_traces < 1 or max_spans_per_trace < 1:
            raise ValueError("recorder bounds must be at least 1")
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()
        self._dropped = 0
        self._sink = None
        self._sink_path: Optional[str] = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, span: Dict[str, Any]) -> None:
        """Store one finished span (and tee it to the sink, when attached)."""
        trace_id = span.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                while len(self._traces) >= self.max_traces:
                    _evicted_id, evicted = self._traces.popitem(last=False)
                    self._dropped += len(evicted)
                spans = []
                self._traces[trace_id] = spans
            if len(spans) >= self.max_spans_per_trace:
                self._dropped += 1
            else:
                spans.append(span)
            sink = self._sink
            if sink is not None:
                sink.write(json.dumps(span, sort_keys=True) + "\n")
                sink.flush()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def trace(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """The flat span list of one trace, or ``None`` if unknown/evicted."""
        with self._lock:
            spans = self._traces.get(trace_id)
            return list(spans) if spans is not None else None

    def tree(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """The trace as a span forest: root spans with nested ``children``.

        A span whose parent was dropped (or recorded elsewhere) becomes a
        root rather than vanishing, so a capped trace still renders every
        retained stage.  Siblings sort by start time.
        """
        spans = self.trace(trace_id)
        if spans is None:
            return None
        by_id = {span["span_id"]: dict(span, children=[]) for span in spans}
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = by_id[span["span_id"]]
            parent = span.get("parent_id")
            if parent is not None and parent in by_id:
                by_id[parent]["children"].append(node)
            else:
                roots.append(node)
        def _sort(nodes: List[Dict[str, Any]]) -> None:
            nodes.sort(key=lambda n: (n.get("start_s", 0.0), n["span_id"]))
            for node in nodes:
                _sort(node["children"])
        _sort(roots)
        return roots

    def profile(self, trace_id: str) -> List[Dict[str, Any]]:
        """Aggregate one trace's spans by name: count / total / max duration."""
        totals: Dict[str, Dict[str, Any]] = {}
        for span in self.trace(trace_id) or ():
            row = totals.setdefault(
                span["name"], {"name": span["name"], "count": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += span["duration_ms"]
            row["max_ms"] = max(row["max_ms"], span["duration_ms"])
        rows = sorted(totals.values(), key=lambda r: -r["total_ms"])
        for row in rows:
            row["total_ms"] = round(row["total_ms"], 3)
            row["max_ms"] = round(row["max_ms"], 3)
        return rows

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": sum(len(spans) for spans in self._traces.values()),
                "dropped": self._dropped,
                "max_traces": self.max_traces,
                "max_spans_per_trace": self.max_spans_per_trace,
            }

    # ------------------------------------------------------------------ #
    # sink / lifecycle
    # ------------------------------------------------------------------ #
    def attach_sink(self, path: Optional[str]) -> None:
        """Tee every recorded span to ``path`` as JSONL (``None`` detaches)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None
                self._sink_path = None
            if path is not None:
                self._sink = open(path, "a", encoding="utf-8")
                self._sink_path = path

    @property
    def sink_path(self) -> Optional[str]:
        return self._sink_path

    def clear(self) -> None:
        """Drop every retained trace and reset the dropped counter (tests)."""
        with self._lock:
            self._traces.clear()
            self._dropped = 0


#: The process-global recorder every service layer records into.
default_recorder = SpanRecorder()
