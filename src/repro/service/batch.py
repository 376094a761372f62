"""Batch/streaming election sweeps: ``POST /elections`` and ``GET /sweeps/<id>``.

One request, many graphs.  A batch body is either

* a JSON object ``{"items": [...]}`` (or a bare JSON array) of single-query
  payloads exactly as ``POST /election`` accepts them,
* NDJSON -- one single-query payload per line (a malformed line becomes a
  per-item error in the stream, not a request failure), or
* a JSON object ``{"sweep": {...}}`` with a *declarative* description that
  the server expands itself: a named seeded corpus
  (``{"corpus": "mixed", "count": 200, "seed": 7}``) or a generator grid
  (``{"grid": [{"kind": "random-regular", "sizes": [6, 8], "seeds": [0, 1]}]}``),
  sharing optional ``tasks`` / ``max_depth`` / ``max_states`` / ``advice``.

The response is an NDJSON stream (``application/x-ndjson``): a header line
naming the sweep id, one line per item **in submission order**, and a
trailer line with totals.  Consistency model:

* **Per-item results are byte-identical to sequential ``POST /election``
  calls** once the volatile fields (``elapsed_ms``, ``coalesced``) are
  dropped -- every item goes through the very same coalescing/query path,
  so identical in-flight items (within a batch or across requests)
  share one computation, and with a store attached every item warm-starts
  from and writes through the same artifact set.
  ``tests/test_service_workers.py`` certifies both properties on a
  200-graph mixed-corpus sweep.
* **Backpressure is a bounded in-flight window.**  At most ``window`` items
  are being computed or buffered ahead of the line the client has consumed;
  a slow reader therefore stalls the sweep's *computation*, not the event
  loop or memory.
* **Progress and resume.**  Sweep ids are content digests of the expanded
  item list.  ``GET /sweeps/<id>`` reports per-item status (saved as the
  store's progress record of the sweep when a store is attached, so it
  survives restarts); because results write through the artifact store,
  *re-POSTing the same body* is the resume operation -- already-computed
  items replay from the store without a single refinement pass.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Iterable, List, Optional

import time

from ..obs import current_context, record_span
from ..obs import span as obs_span
from ..portgraph.validation import is_json_int
from .protocol import (
    SWEEP_RUNNING,
    SWEEP_TERMINAL,
    WindowLedger,
    sweep_transition,
)
from .service import ElectionService, ServiceError, deterministic_response

__all__ = [
    "BatchCoordinator",
    "BatchItem",
    "BatchRequest",
    "SweepStatus",
    "expand_sweep",
    "sweep_digest",
    "sweep_items",
]

#: Hard cap on items per batch; a larger sweep is rejected with 400.
MAX_BATCH_ITEMS = 1024
#: Bounded in-flight window: default and hard cap.
DEFAULT_WINDOW = 8
MAX_WINDOW = 64
#: In-memory sweep statuses retained (oldest evicted first).
MAX_TRACKED_SWEEPS = 64


@dataclass
class BatchItem:
    """One unit of a batch: a single-query payload or a parse-time error."""

    index: int
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


@dataclass
class BatchRequest:
    """A parsed, expanded, validated batch."""

    sweep_id: str
    items: List[BatchItem]
    window: int


@dataclass
class SweepStatus:
    """Mutable progress record of one sweep (what ``GET /sweeps/<id>`` serves).

    The ``state`` field moves only through the shared sweep transition table
    (:data:`repro.service.protocol.SWEEP_TRANSITIONS`) via :meth:`apply` --
    the same table the ``repro verify`` model checker explores -- so an
    illegal lifecycle step (finalising twice, resolving items after the
    trailer) raises :class:`~repro.service.protocol.ProtocolViolation` at
    the call site instead of quietly corrupting the progress record.
    """

    sweep_id: str
    total: int
    window: int
    completed: int = 0
    ok: int = 0
    errors: int = 0
    state: str = SWEEP_RUNNING  # running | done | cancelled
    max_in_flight: int = 0
    item_status: List[str] = field(default_factory=list)
    #: Live window accounting (not serialised; dies with the stream).
    ledger: Optional[WindowLedger] = None

    def apply(self, event: str) -> None:
        """Advance the lifecycle state through the shared transition table."""
        self.state = sweep_transition(self.state, event)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep_id,
            "total": self.total,
            "window": self.window,
            "completed": self.completed,
            "ok": self.ok,
            "errors": self.errors,
            "state": self.state,
            "max_in_flight": self.max_in_flight,
            "items": "".join({"pending": ".", "ok": "+", "error": "!"}[s] for s in self.item_status),
            "resume": "re-POST the same body to /elections; finished items replay store-warm",
        }


def sweep_digest(payloads: List[Any]) -> str:
    """The sweep id of a batch: a content digest of its item payloads, in order.

    A parse-time error item enters as ``{"malformed": <error>}``.  ``repro
    warm`` names its sweeps with this digest too, over :func:`sweep_items`,
    so a warmed corpus and the same declarative ``POST /elections`` sweep
    share one id and one progress record.
    """
    canonical = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=12).hexdigest()


def sweep_items(specs: Iterable[Any], shared: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One single-query payload per graph spec, carrying the ``shared`` options:
    how a declarative sweep expands into items."""
    return [dict(shared, spec=spec.to_dict()) for spec in specs]


# --------------------------------------------------------------------------- #
# declarative sweep expansion
# --------------------------------------------------------------------------- #
_SHARED_ITEM_KEYS = ("tasks", "max_depth", "max_states", "advice")


def expand_sweep(sweep: Any, *, max_items: int = MAX_BATCH_ITEMS) -> List[Dict[str, Any]]:
    """Expand a declarative sweep object into single-query item payloads.

    Validation errors (unknown corpus or kind, bad counts, oversized
    expansion) raise :class:`ServiceError` -- they fail the *request*;
    per-graph parameter problems are deliberately left to fail their *item*
    at build time instead.
    """
    from ..runner.spec import GraphSpec, graph_kinds, sized_graph_kinds
    from ..scenarios import corpus_specs

    if not isinstance(sweep, dict):
        raise ServiceError(400, "'sweep' must be an object")
    shared = {key: sweep[key] for key in _SHARED_ITEM_KEYS if key in sweep}
    specs: List[GraphSpec] = []
    if "corpus" in sweep:
        count = sweep.get("count", 1)
        if not is_json_int(count) or count < 1:
            raise ServiceError(400, "'count' must be a positive integer")
        if count > max_items:
            raise ServiceError(
                400, f"oversized sweep: {count} items exceed the {max_items}-item limit"
            )
        seed = sweep.get("seed", 0)
        if not is_json_int(seed):
            raise ServiceError(400, "'seed' must be an integer")
        try:
            specs = corpus_specs(count, seed=seed, corpus=sweep["corpus"])
        except ValueError as error:
            raise ServiceError(400, str(error)) from None
    elif "grid" in sweep:
        grid = sweep["grid"]
        if not isinstance(grid, list) or not grid:
            raise ServiceError(400, "'grid' must be a non-empty list of generator entries")
        sized = sized_graph_kinds()
        for entry in grid:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ServiceError(400, "each grid entry needs a 'kind'")
            kind = entry["kind"]
            if kind not in graph_kinds():
                raise ServiceError(
                    400, f"unknown graph kind {kind!r}; known: {', '.join(graph_kinds())}"
                )
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise ServiceError(400, "'params' must be an object")
            sizes = entry.get("sizes", [None])
            seeds = entry.get("seeds", [None])
            if not isinstance(sizes, list) or not isinstance(seeds, list):
                raise ServiceError(400, "'sizes' and 'seeds' must be lists")
            if sizes != [None] and kind not in sized:
                raise ServiceError(
                    400, f"kind {kind!r} is not a single-size generator; use 'params'"
                )
            for size in sizes:
                for seed in seeds:
                    expanded = dict(params)
                    if size is not None:
                        expanded[sized[kind]] = size
                    if seed is not None:
                        expanded["seed"] = seed
                    try:
                        specs.append(GraphSpec.make(kind, **expanded))
                    except ValueError as error:
                        raise ServiceError(400, str(error)) from None
                    if len(specs) > max_items:
                        raise ServiceError(
                            400,
                            f"oversized sweep: grid expands past the {max_items}-item limit",
                        )
    else:
        raise ServiceError(400, "'sweep' needs either 'corpus' or 'grid'")
    return sweep_items(specs, shared)


# --------------------------------------------------------------------------- #
# the coordinator
# --------------------------------------------------------------------------- #
class BatchCoordinator:
    """Parses, schedules and streams batches for one :class:`ElectionService`."""

    def __init__(
        self,
        service: ElectionService,
        *,
        max_items: int = MAX_BATCH_ITEMS,
    ) -> None:
        self._service = service
        self._max_items = max_items
        # sized to the compute pool's width, the service's genuine overlap
        self._default_window = min(MAX_WINDOW, max(DEFAULT_WINDOW, 2 * service.concurrency))
        self._sweeps: "OrderedDict[str, SweepStatus]" = OrderedDict()
        self._lock = threading.Lock()
        self._counters = {"batches": 0, "batch_items": 0, "batch_errors": 0, "cancelled": 0}

    # ------------------------------------------------------------------ #
    # parsing
    # ------------------------------------------------------------------ #
    def prepare(self, body: bytes) -> BatchRequest:
        """Parse and expand a batch body (raises :class:`ServiceError`)."""
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            raise ServiceError(400, "request body is not valid UTF-8") from None
        if not text.strip():
            raise ServiceError(400, "empty batch")
        window: Optional[int] = None
        items: List[BatchItem] = []
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            # NDJSON: one item payload per line; malformed lines fail their item
            for line in filter(None, (line.strip() for line in text.splitlines())):
                index = len(items)
                try:
                    parsed = json.loads(line)
                except json.JSONDecodeError as error:
                    items.append(BatchItem(index, error=f"malformed NDJSON line: {error}"))
                    continue
                items.append(self._item_from(parsed, index))
        else:
            if isinstance(payload, list):
                raw_items = payload
            elif isinstance(payload, dict):
                has_items = payload.get("items") is not None
                has_sweep = payload.get("sweep") is not None
                if not has_items and not has_sweep and ("spec" in payload or "graph" in payload):
                    # a one-line NDJSON body parses as a plain JSON object;
                    # honour the NDJSON contract: it is a single-item batch
                    raw_items = [payload]
                elif has_items == has_sweep:
                    raise ServiceError(400, "provide exactly one of 'items' or 'sweep'")
                elif has_sweep:
                    window = payload.get("window")
                    raw_items = expand_sweep(payload["sweep"], max_items=self._max_items)
                else:
                    window = payload.get("window")
                    raw_items = payload["items"]
                    if not isinstance(raw_items, list):
                        raise ServiceError(400, "'items' must be a list")
            else:
                raise ServiceError(400, "batch body must be a JSON object, array or NDJSON")
            items = [self._item_from(raw, index) for index, raw in enumerate(raw_items)]
        if not items:
            raise ServiceError(400, "empty batch")
        if len(items) > self._max_items:
            raise ServiceError(
                400,
                f"oversized sweep: {len(items)} items exceed the {self._max_items}-item limit",
            )
        if window is None:
            window = self._default_window
        if not is_json_int(window) or window < 1:
            raise ServiceError(400, "'window' must be a positive integer")
        window = min(window, MAX_WINDOW)
        payloads = [
            item.payload if item.error is None else {"malformed": item.error} for item in items
        ]
        return BatchRequest(sweep_id=sweep_digest(payloads), items=items, window=window)

    @staticmethod
    def _item_from(raw: Any, index: int) -> BatchItem:
        if not isinstance(raw, dict):
            return BatchItem(index, error="item must be a JSON object")
        return BatchItem(index, payload=raw)

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    async def stream(
        self,
        request: BatchRequest,
        emit: Callable[[Dict[str, Any]], Awaitable[None]],
        *,
        trace: Optional[str] = None,
    ) -> None:
        """Compute the batch and emit NDJSON lines in item order.

        ``emit`` writes (and drains) one line; at most ``request.window``
        items are past their semaphore -- computing or waiting to be emitted
        -- at any instant, which is both the memory bound and the
        backpressure coupling to the client's read rate.  A failed ``emit``
        (client gone) cancels everything still pending.

        ``trace`` is the serving request's trace id; when given, every
        emitted line (header, items, trailer) carries it, so a stress
        failure or a production incident correlates one NDJSON stream with
        the server's ``/stats`` trace ring and its logs.

        The lifecycle state moves through the shared transition table and
        the window ledger audits every slot (see
        :mod:`repro.service.protocol`): a leaked slot or a double
        finalisation raises instead of hanging a waiter.
        """
        status = self._register(request)
        self._counters["batches"] += 1
        self._counters["batch_items"] += len(request.items)
        gate = asyncio.Semaphore(request.window)
        ledger = status.ledger
        assert ledger is not None
        # the trace context at stream entry (the serving request's root
        # span); item tasks inherit it via ensure_future, the aggregate
        # "emit" span is recorded against it manually at the end
        trace_context = current_context()
        stream_started = (time.time(), time.perf_counter())
        emit_seconds = 0.0

        def stamped(line: Dict[str, Any]) -> Dict[str, Any]:
            return line if trace is None else dict(line, trace_id=trace)

        async def emit_timed(line: Dict[str, Any]) -> None:
            nonlocal emit_seconds
            t0 = time.perf_counter()
            await emit(line)
            emit_seconds += time.perf_counter() - t0

        async def compute(item: BatchItem) -> Dict[str, Any]:
            with obs_span("item", tags={"index": item.index}):
                with obs_span("window_acquire"):
                    await gate.acquire()
                ledger.acquire()
                status.max_in_flight = ledger.peak
                if item.error is not None:
                    return {"index": item.index, "status": "error", "error": item.error}
                try:
                    result = await self._service.query(item.payload)
                except ServiceError as error:
                    return {"index": item.index, "status": "error", "error": error.message}
                except Exception as error:  # pragma: no cover - defensive
                    return {
                        "index": item.index,
                        "status": "error",
                        "error": f"internal error: {type(error).__name__}: {error}",
                    }
                return dict(
                    deterministic_response(result), index=item.index, status="ok"
                )

        tasks: List[asyncio.Future] = []
        emitted = 0
        try:
            # the header emit is *inside* the try: a client that disconnects
            # before reading anything must still leave the sweep record
            # "cancelled", not stuck in its streaming state forever
            await emit_timed(
                stamped(
                    {
                        "sweep": request.sweep_id,
                        "items": len(request.items),
                        "window": request.window,
                    }
                )
            )
            tasks = [asyncio.ensure_future(compute(item)) for item in request.items]
            for task in tasks:
                line = await task
                await emit_timed(stamped(line))
                emitted += 1
                ledger.release()
                gate.release()
                status.apply("item_resolved")
                status.completed += 1
                if line["status"] == "ok":
                    status.ok += 1
                else:
                    status.errors += 1
                    self._counters["batch_errors"] += 1
                status.item_status[line["index"]] = line["status"]
            status.apply("completed")
            ledger.assert_drained()
            await emit_timed(
                stamped(
                    {
                        "sweep": request.sweep_id,
                        "status": "done",
                        "ok": status.ok,
                        "errors": status.errors,
                    }
                )
            )
            # one aggregate span: duration is the summed await-time of every
            # emit of this stream (client-read backpressure), not wall time
            record_span(
                "emit",
                start_s=stream_started[0],
                duration_ms=emit_seconds * 1000.0,
                context=trace_context,
                tags={"lines": len(request.items) + 2, "sweep": request.sweep_id},
            )
        finally:
            if status.state not in SWEEP_TERMINAL:
                # any non-completion (failed emit, cancellation, worker
                # error) is a cancelled sweep; previously only exceptions
                # raised after the header left the loop marked this
                status.apply("aborted")
                self._counters["cancelled"] += 1
                for task in tasks:
                    task.cancel()
                # release the window slots of tasks whose computations
                # finished but whose lines were never emitted, so nothing
                # still blocked on the gate waits on a slot that cannot free
                for task in tasks[emitted:]:
                    if task.done() and not task.cancelled():
                        ledger.release()
                        gate.release()
            store = self._service.store
            if store is not None:
                store.put_sweep(status.sweep_id, status.to_dict())

    # ------------------------------------------------------------------ #
    # sweep registry
    # ------------------------------------------------------------------ #
    def _register(self, request: BatchRequest) -> SweepStatus:
        status = SweepStatus(
            sweep_id=request.sweep_id,
            total=len(request.items),
            window=request.window,
            item_status=["pending"] * len(request.items),
            ledger=WindowLedger(request.window),
        )
        with self._lock:
            self._sweeps[request.sweep_id] = status
            self._sweeps.move_to_end(request.sweep_id)
            while len(self._sweeps) > MAX_TRACKED_SWEEPS:
                self._sweeps.popitem(last=False)
        return status

    def sweep_status(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        """The progress record of ``sweep_id`` (memory first, then the store)."""
        with self._lock:
            status = self._sweeps.get(sweep_id)
        if status is not None:
            return status.to_dict()
        store = self._service.store
        return store.get_sweep(sweep_id) if store is not None else None

    def sweep_ids(self) -> List[str]:
        """Known sweep ids: tracked in memory plus persisted in the store."""
        with self._lock:
            known = set(self._sweeps)
        store = self._service.store
        if store is not None:
            known.update(store.sweep_ids())
        return sorted(known)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            active = sum(1 for s in self._sweeps.values() if s.state == SWEEP_RUNNING)
            return dict(self._counters, tracked_sweeps=len(self._sweeps), active=active)

    def window_occupancy(self) -> int:
        """Window slots currently held across all running sweeps (for /metrics)."""
        with self._lock:
            return sum(
                s.ledger.in_flight
                for s in self._sweeps.values()
                if s.state == SWEEP_RUNNING and s.ledger is not None
            )
