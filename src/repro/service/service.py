"""The election-query service: coalesced, bounded, store-backed computation.

:class:`ElectionService` is the transport-agnostic core behind
``repro-leader-election serve``.  A query names a graph -- either a full
adjacency (the JSON dict format of :mod:`repro.portgraph.io`) or a generator
spec from the runner's graph-kind registry -- plus optional task and search
parameters, and the answer is feasibility, the requested ψ_Z indices and
(optionally) the bit-exact full-map advice string.  Everything returned is a
pure function of the graph and parameters.  Around that the service adds:

* **Request coalescing.**  Identical queries in flight share one
  computation: the first request registers a future keyed by a digest of the
  canonical request body, duplicates await it, and the ``coalesced`` flag of
  the response (and the ``/stats`` counter) records the dedup.  Differently
  labeled isomorphic submissions hash differently, but they still converge
  in the layers below (refinement cache buckets, store fingerprints).
* **A bounded thread pool.**  Cold computations run off the event loop on
  a fixed-size pool (:mod:`repro.service.workers`), so the event loop keeps
  accepting connections and serving ``/stats`` while searches run; at most
  ``workers`` computations are in flight, the rest queue.

With a store attached the service is a thin front end over the durable
layer: queries warm-start from records persisted by any earlier process and
write their own results through, so a service restart costs nothing and a
fleet of service processes shares one artifact set.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import time
from typing import Any, Dict, Optional, Tuple

from ..core import Task, search_statistics
from ..obs import span as obs_span
from ..portgraph.io import graph_from_dict
from ..portgraph.validation import PortLabelingError, is_json_int
from ..runner import GraphSpec, SweepSpec, evaluate_graph, refinement_cache
from ..store import AmbiguousFingerprint, ArtifactStore

__all__ = [
    "ElectionService",
    "ServiceError",
    "compute_election",
    "deterministic_response",
]

#: Hard cap on submitted adjacency sizes (nodes); protects the joint
#: searches and the event loop from accidental monster submissions.
MAX_SUBMITTED_NODES = 100_000

#: Hard cap on the ops of one ``delta`` edit script, checked when the query
#: is parsed: building the base, applying the edit and replaying it all come
#: after, and the node cap above is only checked once they are done.
MAX_DELTA_OPS = 4_096

#: A ``base`` given as a string must have the shape of a fingerprint: it
#: names an alias file of the store, so no other string may reach a path.
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}")

#: Response fields that legitimately vary between otherwise identical
#: queries (wall time, whether this request drafted behind another, the
#: serving request's trace id, which lifecycle path a delta item took --
#: first submission replays, a repeat hits the cache).  The batch endpoint
#: strips them before stamping its own per-request trace, so streamed items
#: are byte-identical to what sequential ``POST /election`` calls return
#: minus exactly this set, and the CI gate compares through the same helper.
VOLATILE_RESPONSE_FIELDS = frozenset(
    {"elapsed_ms", "coalesced", "trace_id", "delta_path"}
)


def deterministic_response(response: Dict[str, Any]) -> Dict[str, Any]:
    """``response`` without the volatile fields: the pure-function-of-the-graph part."""
    return {key: value for key, value in response.items() if key not in VOLATILE_RESPONSE_FIELDS}


class ServiceError(Exception):
    """A client error with an HTTP status (bad graph, bad parameters)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _check_spec(spec: Any, what: str) -> None:
    """Refuse a generator spec that is not ``{"kind": str, "params": {...}}``."""
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise ServiceError(400, f"{what} must be an object with a string 'kind'")
    if not isinstance(spec.get("params", {}), dict):
        raise ServiceError(400, f"{what} 'params' must be an object")


def _resolve_delta(parsed: Dict[str, Any]):
    """Resolve a ``{"base": ..., "delta": [...]}`` item into a warm cache entry.

    Drives the delta-item lifecycle (:mod:`repro.service.protocol`):
    ``lookup`` -> resolve the base (spec build, or store fingerprint; a
    missing fingerprint, or one more than one stored graph shares, is
    ``base_miss`` and, because the mutated graph cannot be reconstructed
    without the base adjacency, fails the item: 404, respectively 409) ->
    :meth:`~repro.runner.cache.RefinementCache.delta_entry` (which reports
    ``cache_hit``, or ``base_hit``/``memos_invalidated``/``replayed``).
    Returns ``(entry, label, delta_section, status)``; the caller finishes
    the lifecycle with ``evaluated`` after the election evaluation.
    """
    from ..portgraph.delta import DeltaError, GraphDelta
    from .protocol import DeltaStatus

    status = DeltaStatus()
    status.apply("lookup")
    try:
        delta = GraphDelta.from_payload(parsed["delta"])
    except (DeltaError, ValueError, TypeError) as error:
        status.apply("error")
        raise ServiceError(400, f"invalid delta: {error}") from None
    base_ref = parsed["base"]
    if isinstance(base_ref, dict):
        try:
            spec = GraphSpec.make(base_ref["kind"], **base_ref.get("params", {}))
            base_graph = spec.build()
        except ValueError as error:
            status.apply("error")
            raise ServiceError(400, str(error)) from None
        base_label = spec.label
    else:
        store = refinement_cache.store
        try:
            record = store.by_fingerprint(base_ref) if store is not None else None
            missing = (404, f"base fingerprint {base_ref!r} is not in the store")
        except AmbiguousFingerprint:
            record = None
            missing = (
                409,
                f"base fingerprint {base_ref!r} names more than one stored graph; "
                "send the base as a spec or adjacency",
            )
        if record is None:
            status.apply("base_miss")
            # without the base adjacency the mutated graph cannot be built,
            # so the recompute fallback has nothing to recompute from
            status.apply("error")
            raise ServiceError(*missing)
        base_graph = record.graph  # decoding seeded its fingerprint
        base_label = base_graph.name or base_ref[:12]
    events: list = []
    try:
        entry = refinement_cache.delta_entry(base_graph, delta, events=events)
    except DeltaError as error:
        for event in events:
            status.apply(event)
        status.apply("error")
        raise ServiceError(400, f"delta does not apply to base: {error}") from None
    for event in events:
        status.apply(event)
    delta_section = {
        "base": base_label,
        "digest": delta.digest(),
        "edit_distance": delta.edit_distance,
    }
    return entry, entry.graph.name or base_label, delta_section, status


def compute_election(parsed: Dict[str, Any]) -> Dict[str, Any]:
    """Build the graph of a parsed query and answer it (pool-thread code).

    Runs on a thread of the service's bounded pool and touches only
    process-wide state (the refinement cache and, through it, the attached
    store), never the service instance, so a batch item and a single
    request run the very same code and return byte-identical responses.
    """
    with obs_span("compute_election") as sp:
        started = time.perf_counter()
        entry = delta_section = delta_status = None
        with obs_span("graph_build"):
            if parsed.get("delta") is not None:
                entry, label, delta_section, delta_status = _resolve_delta(parsed)
                graph = entry.graph
            elif parsed["spec"] is not None:
                spec_dict = parsed["spec"]
                try:
                    spec = GraphSpec.make(spec_dict["kind"], **spec_dict.get("params", {}))
                    graph = spec.build()
                except ValueError as error:
                    raise ServiceError(400, str(error)) from None
                label = spec.label
            else:
                try:
                    graph = graph_from_dict(parsed["graph"], validate=True)
                except (PortLabelingError, KeyError, TypeError, ValueError) as error:
                    raise ServiceError(400, f"invalid graph: {error}") from None
                label = graph.name or "submitted"
        if graph.num_nodes > MAX_SUBMITTED_NODES:
            raise ServiceError(400, f"graph too large (> {MAX_SUBMITTED_NODES} nodes)")
        sweep = SweepSpec.make(
            (),
            tasks=parsed["tasks"],
            max_depth=parsed["max_depth"],
            max_states=parsed["max_states"],
        )
        # a delta item's entry is already in hand: no second cache lookup
        record = evaluate_graph(graph, sweep, label=label, entry=entry)
        indices = {task.value: record[f"psi_{task.value}"] for task in parsed["tasks"]}
        limited = [code for code in record.get("search_limited", "").split(",") if code]
        response: Dict[str, Any] = {
            "graph": label,
            "fingerprint": graph.fingerprint(),
            "n": graph.num_nodes,
            "m": graph.num_edges,
            "max_degree": graph.max_degree,
            "feasible": record["feasible"],
            "indices": indices,
            "search_limited": limited,
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        if parsed["advice"]:
            from ..advice.map_advice import encode_map_advice  # lazy import, heavy layer

            response["advice"] = {"map": encode_map_advice(graph)}
        if delta_status is not None:
            delta_status.apply("evaluated")
            response["delta"] = delta_section
            # volatile by design: a first submission replays, a repeat hits
            # the cache -- the result bytes are identical either way
            response["delta_path"] = list(delta_status.events)
        sp.add_tags({"graph": label, "n": graph.num_nodes, "advice": parsed["advice"]})
        return response


class ElectionService:
    """The query front end (see the module docstring).

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.ArtifactStore`; attached to the
        process-wide refinement cache so queries read and write through it.
        Its hot tier, if it was built with one, is the store's own setting.
    workers:
        Size of the bounded compute pool.
    default_max_states:
        PPE/CPPE search budget applied when a query does not set one.  A
        budget a query could not set (no positive integer) raises
        ``ValueError`` here, not a 400 on every query that leaves it out.

    The service configures no caching: the refinement cache keeps its one
    LRU, and every answer is the same whichever layer it is found in.
    """

    def __init__(
        self,
        *,
        store: Optional[ArtifactStore] = None,
        workers: int = 4,
        default_max_states: int = 200_000,
    ) -> None:
        from .workers import ThreadBackend  # deferred: workers.py imports this module

        if not is_json_int(default_max_states) or default_max_states < 1:
            raise ValueError(
                f"max_states must be a positive integer, got {default_max_states!r}"
            )
        self._backend = ThreadBackend(workers=workers)
        self._store = store
        self._workers = workers
        self._default_max_states = default_max_states
        self._closed = False
        if store is not None:
            refinement_cache.attach_store(store)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._counters = {
            "requests": 0,
            "queries": 0,
            "coalesced": 0,
            "computed": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[ArtifactStore]:
        return self._store

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def hot_tier_bytes(self) -> int:
        """The byte budget of the store's hot tier (0 without a store or a tier)."""
        hot = self._store.hot_tier if self._store is not None else None
        return hot.max_bytes if hot is not None else 0

    @property
    def backend(self) -> str:
        """The compute backend's name (always ``"thread"``)."""
        return self._backend.name

    @property
    def concurrency(self) -> int:
        """How many computations can overlap on the pool."""
        return self._backend.concurrency

    @property
    def in_flight(self) -> int:
        """Coalescing futures currently unresolved (for /metrics)."""
        return len(self._inflight)

    def counter(self, name: str) -> int:
        """One service counter by name (for /metrics gauge callbacks)."""
        return self._counters[name]

    def queue_depth(self) -> int:
        """Computations accepted but not yet running (for /metrics)."""
        return self._backend.queue_depth()

    def observed_counters(self) -> Dict[str, Dict[str, int]]:
        """Kernel-search and store counters of this process (for /metrics).

        Unlike :meth:`stats`, this never takes the refinement-cache lock or
        touches the store's directory.
        """
        store = self._store.io_counters() if self._store is not None else {}
        return {"search": dict(search_statistics()), "store": store}

    def count_request(self) -> None:
        """Tally one HTTP request (any endpoint); called by the server."""
        self._counters["requests"] += 1

    def close(self) -> None:
        """Shut the compute backend down and detach this service's store.

        Idempotent and deterministic: the thread pool is joined (queued
        work cancelled), so ``repro serve`` exits without lingering
        non-daemon threads.  The store attachment lives on
        the process-wide refinement cache, so leaving it behind would make
        later, unrelated work in this process silently read from and
        persist into this service's directory.
        """
        if self._closed:
            return
        self._closed = True
        self._backend.close()
        if self._store is not None:
            # release the hot tier's mapped buffers; already-decoded records
            # stay valid (decode copies out of the mapping) and the store
            # itself remains usable cold
            self._store.close()
            if refinement_cache.store is self._store:
                refinement_cache.attach_store(None)

    # ------------------------------------------------------------------ #
    # /election
    # ------------------------------------------------------------------ #
    async def query(self, payload: Any) -> Dict[str, Any]:
        """Answer one election query, coalescing identical in-flight ones."""
        self._counters["queries"] += 1
        parsed, key = self._parse(payload)
        existing = self._inflight.get(key)
        if existing is not None:
            self._counters["coalesced"] += 1
            with obs_span("coalesce_wait"):
                status, value = await existing
            if status == "error":
                raise value
            return dict(value, coalesced=True)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            with obs_span("compute"):
                result = await self._backend.submit(parsed)
        except Exception as error:
            self._counters["errors"] += 1
            future.set_result(("error", error))
            raise
        except BaseException:
            # cancellation (e.g. a batch item whose client disconnected):
            # resolve the coalescing future so drafting waiters get a clean
            # error instead of hanging on a future nobody will complete
            future.set_result(
                ("error", ServiceError(503, "computation cancelled"))
            )
            raise
        else:
            self._counters["computed"] += 1
            future.set_result(("ok", result))
            return dict(result, coalesced=False)
        finally:
            del self._inflight[key]

    def _parse(self, payload: Any) -> Tuple[Dict[str, Any], str]:
        """Validate a query body; returns (parsed fields, coalescing key).

        Parsing is cheap (no graph is built here): the heavy work -- graph
        construction, validation, refinement, searches -- happens on the
        compute pool.  The coalescing key digests the canonical JSON of
        every field that determines the answer.
        """
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        graph_dict = payload.get("graph")
        spec_dict = payload.get("spec")
        base_ref = payload.get("base")
        delta_ops = payload.get("delta")
        given = sum(1 for value in (graph_dict, spec_dict, base_ref) if value is not None)
        if given != 1:
            raise ServiceError(400, "provide exactly one of 'graph', 'spec' or 'base'")
        if base_ref is not None:
            if isinstance(base_ref, dict):
                _check_spec(base_ref, "'base' spec")
            elif not isinstance(base_ref, str) or not _FINGERPRINT_RE.fullmatch(base_ref):
                raise ServiceError(
                    400, "'base' must be a generator spec object or a 64-hex fingerprint"
                )
            if not isinstance(delta_ops, list) or not delta_ops:
                raise ServiceError(400, "'base' requires a non-empty 'delta' op list")
            if len(delta_ops) > MAX_DELTA_OPS:
                raise ServiceError(400, f"delta too large (> {MAX_DELTA_OPS} ops)")
        elif delta_ops is not None:
            raise ServiceError(400, "'delta' requires a 'base' to apply to")
        if spec_dict is not None:
            _check_spec(spec_dict, "'spec'")
        elif graph_dict is not None and not isinstance(graph_dict, dict):
            raise ServiceError(400, "'graph' must be the adjacency dict format")
        task_codes = payload.get("tasks")
        if task_codes is None:
            tasks = list(Task.ordered())
        else:
            try:
                tasks = [Task(code) for code in task_codes]
            except (ValueError, TypeError):
                raise ServiceError(
                    400,
                    f"unknown task in {task_codes!r} "
                    f"(expected codes among {[t.value for t in Task.ordered()]})",
                ) from None
        max_depth = payload.get("max_depth")
        if max_depth is not None and (not is_json_int(max_depth) or max_depth < 0):
            raise ServiceError(400, "'max_depth' must be a non-negative integer")
        max_states = payload.get("max_states", self._default_max_states)
        if not is_json_int(max_states) or max_states < 1:
            raise ServiceError(400, "'max_states' must be a positive integer")
        advice = bool(payload.get("advice", False))
        parsed = {
            "graph": graph_dict,
            "spec": spec_dict,
            "base": base_ref,
            "delta": delta_ops,
            "tasks": tasks,
            "max_depth": max_depth,
            "max_states": max_states,
            "advice": advice,
        }
        canonical = json.dumps(
            {
                "graph": graph_dict,
                "spec": spec_dict,
                "base": base_ref,
                "delta": delta_ops,
                "tasks": [task.value for task in tasks],
                "max_depth": max_depth,
                "max_states": max_states,
                "advice": advice,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        key = hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
        return parsed, key

    # ------------------------------------------------------------------ #
    # /stats
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Counters of every layer: service, cache, store, searches.

        Every computation runs in this process, so ``cache`` and ``search``
        are this process's own counters -- the numbers that certify "a
        store-warm replay performs zero refinement passes".
        """
        from ..kernel import active_backend

        payload: Dict[str, Any] = {
            "service": dict(
                self._counters,
                in_flight=len(self._inflight),
                workers=self._workers,
                backend=self._backend.name,
                concurrency=self._backend.concurrency,
                kernel_backend=active_backend(),
                hot_tier_bytes=self.hot_tier_bytes,
            ),
            "cache": refinement_cache.stats(),
            "search": search_statistics(),
        }
        if self._store is not None:
            payload["store"] = self._store.stats()
        return payload
