"""Minimal asyncio HTTP/1.1 front end for :class:`~repro.service.service.ElectionService`.

Standard library only (``asyncio`` streams; no web framework), because the
container the reproduction targets has no HTTP dependencies.  The protocol
surface is deliberately small and JSON-only:

* ``POST /election`` -- submit a graph (adjacency dict or generator spec)
  and get feasibility / ψ_Z indices / advice back;
* ``POST /elections`` -- submit a *batch* (item list, NDJSON lines or a
  declarative sweep spec) and stream per-item results back as NDJSON with a
  bounded in-flight window (see :mod:`repro.service.batch`);
* ``GET /sweeps`` / ``GET /sweeps/<id>`` -- progress/resume records of
  batches, persisted alongside the artifact store;
* ``GET /stats`` -- counters of every layer (service, batch coordinator,
  refinement cache, artifact store, joint searches), plus the recent-trace
  ring and a ``slowest`` request table;
* ``GET /trace/<id>`` -- the span tree of one recent request (parse,
  coalesce/queue waits, compute, emit);
* ``GET /metrics`` -- Prometheus text exposition (request/batch counters,
  window occupancy, queue depth, latency histograms, recorder drop
  counters);
* ``GET /healthz`` -- liveness.

Every request is assigned a **trace id** (a server nonce plus a serial):
it rides on every JSON response (as ``trace_id``) and every NDJSON line of
a batch stream, it keys the span tree served by ``GET /trace/<id>``, and
the last 64 traces are echoed by ``GET /stats``, so one bad stream in
a stress run or a production incident is correlatable with the server's
own record of serving it.  Requests slower than a configurable threshold
are additionally logged to stderr with their trace id.

Connections are handled one request at a time and closed after the response
(``Connection: close``); request bodies are capped; single-query responses
are ``application/json`` with sorted keys and batch responses are
``application/x-ndjson`` terminated by connection close, so both are
byte-deterministic given deterministic payloads (batches modulo the
documented volatile fields, which the stream omits -- the trace id being
volatile by design).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import signal
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..kernel.backend import active_backend as _active_kernel_backend
from ..obs import default_recorder
from ..obs import span as obs_span
from .batch import BatchCoordinator
from .metrics import MetricsRegistry
from .service import ElectionService, ServiceError

__all__ = ["ElectionServer", "run_server"]

#: Maximum accepted request body (bytes); adjacency submissions are compact.
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Seconds a client may take to deliver one full request.
REQUEST_TIMEOUT = 60.0
#: Trace ids remembered for the ``/stats`` echo.
TRACE_RING_SIZE = 64
#: Rows kept in the ``/stats`` ``slowest`` table.
SLOWEST_TABLE_SIZE = 10
#: Default slow-request log threshold (seconds).
DEFAULT_SLOW_REQUEST_S = 1.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Sweep ids are lowercase-hex content digests; anything else is unknown by
#: construction (and must not reach the filesystem as a path fragment).
_SWEEP_ID_RE = re.compile(r"[0-9a-f]{1,64}")

#: Trace ids are dash-joined lowercase alphanumeric words (server nonces
#: ``abcdef-000001``, CLI roots ``bench-1a2b3c4d``); reject anything else
#: before it is used as a recorder key.
_TRACE_ID_RE = re.compile(r"[0-9a-z]{1,32}(-[0-9a-z]{1,32}){0,4}")

#: The fixed endpoint set, for metric-label normalisation.
_KNOWN_PATHS = frozenset(
    {"/election", "/elections", "/sweeps", "/stats", "/metrics", "/healthz"}
)


def _normalize_path(path: Optional[str]) -> str:
    """A bounded-cardinality metric label for ``path``."""
    if path is None:
        return "<unparsed>"
    if path in _KNOWN_PATHS:
        return path
    if path.startswith("/sweeps/"):
        return "/sweeps/{id}"
    if path.startswith("/trace/"):
        return "/trace/{id}"
    return "<other>"


def _encode_response(status: int, payload: Dict[str, Any]) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return _encode_raw(status, body, "application/json")


def _encode_raw(status: int, body: bytes, content_type: str) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; returns ``(method, path, body)`` or ``None`` on EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ServiceError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            # a header line without a colon used to be stored silently as an
            # empty-valued header under the whole line; reject it instead
            raise ServiceError(400, "malformed header line (expected 'Name: value')")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "").strip() or "0"
    # strict digits only: int() would also accept '-5', '+5' and '1_0',
    # letting a negative or garbage length reach readexactly() as a 500
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ServiceError(400, "malformed Content-Length")
    content_length = int(raw_length)
    if content_length > MAX_BODY_BYTES:
        raise ServiceError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(content_length) if content_length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, body


class ElectionServer:
    """Owns the listening socket and routes requests into the service."""

    def __init__(
        self,
        service: ElectionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        slow_request_s: Optional[float] = None,
        slow_log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._batch = BatchCoordinator(service)
        # --- tracing -------------------------------------------------- #
        self._trace_nonce = os.urandom(3).hex()
        self._trace_serial = itertools.count(1)
        self._recent_traces: "deque[Dict[str, Any]]" = deque(maxlen=TRACE_RING_SIZE)
        self._slowest: List[Dict[str, Any]] = []
        self._slow_request_s = (
            DEFAULT_SLOW_REQUEST_S if slow_request_s is None else slow_request_s
        )
        self._slow_log = slow_log if slow_log is not None else (
            lambda message: print(message, file=sys.stderr)
        )
        # --- metrics --------------------------------------------------- #
        metrics = MetricsRegistry()
        self._metrics = metrics
        self._requests_total = metrics.counter(
            "repro_requests_total",
            "HTTP requests served, by method, normalised path and status.",
            ("method", "path", "status"),
        )
        self._request_seconds = metrics.histogram(
            "repro_request_seconds",
            "Wall time per request (streams: until the stream finished).",
            ("path",),
        )
        metrics.gauge(
            "repro_service_events",
            "Service-layer counters (queries, coalesced, computed, errors).",
            ("event",),
            callback=lambda: {
                (event,): service.counter(event)
                for event in ("requests", "queries", "coalesced", "computed", "errors")
            },
        )
        metrics.gauge(
            "repro_service_in_flight",
            "Coalescing futures currently unresolved.",
            callback=lambda: service.in_flight,
        )
        metrics.gauge(
            "repro_backend_queue_depth",
            "Computations accepted by the backend but not yet running.",
            callback=service.queue_depth,
        )
        metrics.gauge(
            "repro_backend_concurrency",
            "Computations the backend can genuinely overlap.",
            callback=lambda: service.concurrency,
        )
        metrics.gauge(
            "repro_batch_events",
            "Batch-coordinator counters (batches, items, errors, cancellations).",
            ("event",),
            callback=lambda: {(k,): v for k, v in self._batch.stats().items()},
        )
        metrics.gauge(
            "repro_window_in_flight",
            "Window slots currently held across all running sweeps.",
            callback=self._batch.window_occupancy,
        )
        metrics.gauge(
            "repro_traces_issued",
            "Trace ids issued since the server started.",
            callback=lambda: self._trace_count,
        )
        metrics.counter(
            "repro_trace_dropped_total",
            "Spans dropped by the bounded trace recorder (ring eviction or per-trace cap).",
            callback=lambda: default_recorder.stats()["dropped"],
        )
        metrics.gauge(
            "repro_trace_spans",
            "Spans currently retained across the recorder's trace ring.",
            callback=lambda: default_recorder.stats()["spans"],
        )
        metrics.gauge(
            "repro_search_events",
            "Kernel joint-search counters.",
            ("event",),
            callback=lambda: {
                (event,): value
                for event, value in service.observed_counters()["search"].items()
            },
        )
        metrics.gauge(
            "repro_store_events",
            "Artifact-store counters (hits, puts, corrupt objects).",
            ("event",),
            callback=lambda: {
                (event,): value
                for event, value in service.observed_counters()["store"].items()
            },
        )
        metrics.gauge(
            "repro_kernel_backend_info",
            "Refinement pass kinds available: numpy = vector and worklist, python = worklist only.",
            ("backend",),
            callback=lambda: {
                (name,): 1 if name == _active_kernel_backend() else 0
                for name in ("python", "numpy")
            },
        )
        if service.store is not None:
            store = service.store
            metrics.gauge(
                "repro_store_records",
                "Records in the artifact store's objects directory.",
                callback=lambda: store.stats()["records"],
            )

    _trace_count = 0

    @property
    def service(self) -> ElectionService:
        return self._service

    @property
    def batch(self) -> BatchCoordinator:
        return self._batch

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._port

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self._host, self._port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._service.close()

    # ------------------------------------------------------------------ #
    def _new_trace(self) -> str:
        self._trace_count = next(self._trace_serial)
        return f"{self._trace_nonce}-{self._trace_count:06x}"

    def _record_trace(
        self,
        trace: str,
        method: Optional[str],
        path: Optional[str],
        status: Optional[int],
        duration_s: float,
    ) -> None:
        entry = {
            "trace_id": trace,
            "path": _normalize_path(path),
            "status": status or 0,
            "duration_ms": round(duration_s * 1000.0, 3),
        }
        self._recent_traces.append(entry)
        self._slowest.append(dict(entry))
        self._slowest.sort(key=lambda row: -row["duration_ms"])
        del self._slowest[SLOWEST_TABLE_SIZE:]
        if duration_s >= self._slow_request_s:
            self._slow_log(
                f"slow request: {method or '?'} {_normalize_path(path)} "
                f"status={status or 0} duration_ms={entry['duration_ms']} "
                f"trace_id={trace}"
            )

    def trace_ring(self) -> Dict[str, Any]:
        """The ``traces`` section of ``/stats``."""
        recorder = default_recorder.stats()
        return {
            "issued": self._trace_count,
            "recent": list(self._recent_traces),
            "spans": recorder["spans"],
            "dropped": recorder["dropped"],
            "slowest": [dict(row) for row in self._slowest],
        }

    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        trace = self._new_trace()
        method: Optional[str] = None
        path: Optional[str] = None
        status_code: Optional[int] = None
        try:
            with obs_span("http_request", trace_id=trace) as root:
                method, path, status_code = await self._serve_request(
                    reader, writer, trace
                )
                if root.recording:
                    root.add_tags(
                        {
                            "method": method or "?",
                            "path": _normalize_path(path),
                            "status": status_code or 0,
                        }
                    )
        except ConnectionResetError:
            pass
        finally:
            duration_s = time.perf_counter() - started
            if method is not None or status_code is not None:
                self._requests_total.inc(
                    method=method or "?",
                    path=_normalize_path(path),
                    status=str(status_code or 0),
                )
                self._request_seconds.observe(duration_s, path=_normalize_path(path))
                self._record_trace(trace, method, path, status_code, duration_s)
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, trace: str
    ) -> Tuple[Optional[str], Optional[str], Optional[int]]:
        """Route one request; returns ``(method, path, status)`` for telemetry.

        Runs inside the request's root span, so every stage span recorded
        below (parse, batch stages, dispatch handlers) parents correctly.
        """
        try:
            with obs_span("parse"):
                request = await asyncio.wait_for(_read_request(reader), REQUEST_TIMEOUT)
        except ServiceError as error:
            writer.write(
                _encode_response(
                    error.status, {"error": error.message, "trace_id": trace}
                )
            )
            return None, None, error.status
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            return None, None, None
        if request is None:
            return None, None, None
        method, path, body = request
        self._service.count_request()
        if path == "/elections" and method == "POST":
            return method, path, await self._handle_batch(writer, body, trace)
        if path == "/metrics":
            if method != "GET":
                writer.write(
                    _encode_response(405, {"error": "use GET", "trace_id": trace})
                )
                return method, path, 405
            # off the loop: gauge callbacks may take coordinator locks
            # or walk the store's objects directory
            loop = asyncio.get_running_loop()
            rendered = await loop.run_in_executor(None, self._metrics.render)
            writer.write(
                _encode_raw(200, rendered.encode("utf-8"), MetricsRegistry.CONTENT_TYPE)
            )
            return method, path, 200
        status, payload = await self._dispatch(method, path, body)
        payload["trace_id"] = trace
        writer.write(_encode_response(status, payload))
        return method, path, status

    async def _handle_batch(
        self, writer: asyncio.StreamWriter, body: bytes, trace: str
    ) -> int:
        """Stream one batch as NDJSON (body length unknown; ends at close).

        Parsing happens before the status line goes out, so request-level
        problems (oversized sweep, unknown corpus, malformed envelope) are
        ordinary JSON 400 responses; only a valid batch switches the
        connection into streaming mode.  A client that stops reading stalls
        the emit (bounded window); one that disconnects cancels the sweep.
        Returns the response status for the request metrics.
        """
        try:
            with obs_span("batch_prepare"):
                request = self._batch.prepare(body)
        except ServiceError as error:
            writer.write(
                _encode_response(
                    error.status, {"error": error.message, "trace_id": trace}
                )
            )
            return error.status
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )

        async def emit(line: Dict[str, Any]) -> None:
            writer.write((json.dumps(line, sort_keys=True) + "\n").encode("utf-8"))
            await writer.drain()

        try:
            await self._batch.stream(request, emit, trace=trace)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the coordinator already marked the sweep cancelled
        return 200

    async def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"status": "ok"}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            # off the loop: stats() takes the refinement-cache lock, which a
            # worker thread may hold while decoding a large store record
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, self._service.stats)
            payload["batch"] = self._batch.stats()
            payload["traces"] = self.trace_ring()
            return 200, payload
        if path == "/sweeps":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"sweeps": self._batch.sweep_ids()}
        if path.startswith("/sweeps/"):
            if method != "GET":
                return 405, {"error": "use GET"}
            sweep_id = path[len("/sweeps/"):]
            # ids are hex content digests; reject everything else *before*
            # it can reach the filesystem as a path fragment (a malformed id
            # such as 'x/../y' or 'abc.json/z' used to surface as a 500)
            if not _SWEEP_ID_RE.fullmatch(sweep_id):
                return 404, {"error": f"malformed sweep id {sweep_id!r}"}
            status = self._batch.sweep_status(sweep_id)
            if status is None:
                return 404, {"error": f"unknown sweep {sweep_id!r}"}
            return 200, status
        if path.startswith("/trace/"):
            if method != "GET":
                return 405, {"error": "use GET"}
            trace_id = path[len("/trace/"):]
            # recorder keys are bounded dash-joined words; reject the rest
            # up front so arbitrary client bytes never become lookup keys
            if not _TRACE_ID_RE.fullmatch(trace_id):
                return 404, {"error": f"malformed trace id {trace_id!r}"}
            spans = default_recorder.trace(trace_id)
            if spans is None:
                return 404, {"error": f"unknown trace {trace_id!r}"}
            return 200, {
                "queried": trace_id,
                "span_count": len(spans),
                "spans": default_recorder.tree(trace_id) or [],
            }
        if path == "/elections":
            return 405, {"error": "use POST"}
        if path == "/election":
            if method != "POST":
                return 405, {"error": "use POST"}
            try:
                payload = json.loads(body.decode("utf-8")) if body else None
            except (json.JSONDecodeError, UnicodeDecodeError):
                return 400, {"error": "request body is not valid JSON"}
            try:
                return 200, await self._service.query(payload)
            except ServiceError as error:
                return error.status, {"error": error.message}
            except Exception as error:  # pragma: no cover - defensive
                return 500, {"error": f"internal error: {type(error).__name__}: {error}"}
        return 404, {"error": f"unknown path {path!r}"}


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    store_path: Optional[str] = None,
    workers: int = 4,
    max_states: int = 200_000,
    port_file: Optional[str] = None,
    slow_request_s: Optional[float] = None,
    hot_tier_bytes: int = 0,
    compact_interval_s: Optional[float] = None,
) -> None:
    """Blocking entry point behind ``repro-leader-election serve``.

    ``port_file``, when given, receives the *bound* port as a decimal line
    once the listener is up -- the scripting hook that lets harnesses run
    with ``--port 0`` (kernel-assigned, collision-free) and still find the
    server, instead of hard-coding ports that collide across CI legs.

    ``hot_tier_bytes`` (with a store) is the byte budget of the store's
    in-process hot tier (:class:`~repro.store.ArtifactStore`); ``0`` builds
    none, and without a store it is ignored.

    SIGINT and SIGTERM stop the server: it stops listening, and the service
    is closed (its pool joined, its store detached) before this returns.

    ``compact_interval_s`` (with a store) schedules
    :meth:`~repro.store.ArtifactStore.compact` every that many seconds, off
    the event loop.  Compaction needs no lock: it is safe against
    concurrent writers (the compute pool, a parallel ``repro warm``) and
    other compactions.  Each run bumps the store's ``compactions`` counter, which
    the existing stats plumbing surfaces as
    ``repro_store_events{event="compactions"}`` on ``GET /metrics``.
    """
    from ..store import ArtifactStore

    store = (
        ArtifactStore(store_path, hot_tier_bytes=hot_tier_bytes)
        if store_path is not None
        else None
    )
    if compact_interval_s is not None and compact_interval_s <= 0:
        raise ValueError("compact_interval_s must be positive")
    if compact_interval_s is not None and store is None:
        raise ValueError("compact_interval_s requires a store")
    service = ElectionService(
        store=store,
        workers=workers,
        default_max_states=max_states,
    )
    server = ElectionServer(service, host=host, port=port, slow_request_s=slow_request_s)

    async def _compact_periodically(interval_s: float) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval_s)
            try:
                report = await loop.run_in_executor(None, store.compact)
            except OSError as error:
                print(f"repro serve: store compaction failed: {error}", file=sys.stderr)
            else:
                removed = sum(v for k, v in report.items() if k.startswith("removed_"))
                if removed:
                    print(
                        f"repro serve: compacted store: {removed} objects reclaimed, "
                        f"{report['live_records']} live",
                        file=sys.stderr,
                    )

    async def _main() -> None:
        # SIGINT and SIGTERM end the serve loop, so asyncio.run unwinds and
        # the service is closed below.  The loop's handlers replace any
        # inherited disposition, including a SIGINT ignored by a background
        # job of a non-interactive shell.
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        await server.start()
        if compact_interval_s is not None:
            # dies with the loop; asyncio.run cancels it on shutdown
            asyncio.ensure_future(_compact_periodically(compact_interval_s))
        location = f"http://{host}:{server.port}"
        if store is not None:
            hot_note = (
                f", hot_tier={service.hot_tier_bytes // (1024 * 1024)}MB"
                if service.hot_tier_bytes
                else ""
            )
            store_note = f", store={store.root}{hot_note}"
        else:
            store_note = ", no store"
        print(
            f"repro-leader-election serve: listening on {location} "
            f"(backend=thread, workers={workers}{store_note})",
            file=sys.stderr,
        )
        if port_file is not None:
            tmp_path = f"{port_file}.tmp.{os.getpid()}"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
            os.replace(tmp_path, port_file)
        serving = asyncio.ensure_future(server.serve_forever())
        await stopping.wait()
        serving.cancel()
        await asyncio.wait([serving])

    try:
        asyncio.run(_main())
    finally:
        service.close()
