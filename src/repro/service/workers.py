"""Compute backends for the election service: thread pool or sharded processes.

The service's heavy work -- graph construction, partition refinement, the
ψ_PPE/ψ_CPPE joint searches -- is pure Python, so the original bounded
``ThreadPoolExecutor`` backend (:class:`ThreadBackend`) can never use more
than one core per request wave.  :class:`ProcessShardBackend` is the
partition-for-load-balance alternative: **N persistent worker processes**,
each owning its own process-wide refinement cache (store-attached through
the same :mod:`repro.runner.bootstrap` initializer the experiment runner's
``multiprocessing`` fan-out uses), with queries routed by a stable hash of
their graph identity:

* **Shard routing is deterministic.**  :func:`shard_index` maps a route key
  (a digest of the query's ``graph``/``spec`` body) to a shard, so repeat
  submissions of one graph -- whatever their task/budget parameters --
  always land on the shard that already refined it.  Warm state is
  per-shard by construction; no cross-process cache coherence is needed.
* **Workers are recycled.**  After ``recycle_after`` tasks a worker exits
  on its own (the parent joins it and lazily spawns a successor), bounding
  any slow accumulation of per-process state -- the classic
  ``maxtasksperchild`` discipline, kept deterministic by counting on both
  sides of the pipe.
* **Crashes are detected and retried once.**  A worker that dies mid-task
  (OOM kill, hard crash) surfaces as a broken pipe; the shard respawns the
  worker and resubmits that one task a single time before giving up with a
  503.  Because every computation is a pure function of the request, a
  resubmit can never produce a different answer.
* **Responses are byte-identical to the thread backend.**  Both backends
  run :func:`repro.service.service.compute_election`; a shard ships the
  response dict back over a pipe, and ``ServiceError`` crosses the
  boundary as plain data, so client-visible behaviour is backend-invariant
  (the CI gate certifies this over a 200-graph mixed-corpus batch).

Workers are spawned **lazily** (first task routed to a shard starts its
process) with the ``spawn`` start method: a service respawns workers while
other threads hold arbitrary locks, which rules out ``fork``.  Shard
worker processes are daemonic, so even an unclean parent exit cannot leak
them; a clean :meth:`ProcessShardBackend.close` asks each worker to exit,
joins it, and terminates it if it will not.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..core import search_statistics
from ..obs import activate as activate_trace
from ..obs import current_context, default_recorder, record_span
from ..runner.bootstrap import bootstrap_worker
from ..runner.cache import refinement_cache
from .protocol import WORKER_DOWN, worker_transition
from .service import ServiceError, compute_election

__all__ = [
    "ComputeBackend",
    "DEFAULT_RECYCLE_AFTER",
    "ProcessShardBackend",
    "ThreadBackend",
    "shard_index",
]

#: Default number of tasks a shard worker serves before it is recycled.
DEFAULT_RECYCLE_AFTER = 500

#: Seconds to wait for a worker process (or a busy shard lock) at shutdown
#: before escalating to ``terminate``.
_SHUTDOWN_TIMEOUT = 5.0

#: Total budget (seconds) a stats probe may spend waiting on busy shards.
_STATS_TIMEOUT = 1.0


def shard_index(key: str, shards: int) -> int:
    """The shard owning ``key``: stable across processes, restarts and runs.

    ``key`` is normally already a hex digest (the service's route key), in
    which case its integer value is used directly; any other string is
    hashed first.  Python's built-in ``hash`` is deliberately avoided -- it
    is salted per process, and routing must be deterministic so warm caches
    stay sticky across reconnects and service restarts.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    try:
        value = int(key, 16)
    except ValueError:
        value = int.from_bytes(
            hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
        )
    return value % shards


class ComputeBackend:
    """Interface both backends implement (duck-typed; this is documentation).

    ``submit(route_key, parsed)`` computes one parsed query off the event
    loop and returns the response dict (raising :class:`ServiceError` for
    client errors); ``stats()`` returns ``{"cache": ..., "search": ...}``
    sections measured where the computing happens; ``close()`` shuts the
    backend down idempotently and deterministically.
    """

    name: str
    concurrency: int

    async def submit(self, route_key: str, parsed: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# thread backend (the original)
# --------------------------------------------------------------------------- #
class ThreadBackend(ComputeBackend):
    """The bounded in-process pool: simple, GIL-bound, zero start-up cost."""

    name = "thread"

    def __init__(self, *, workers: int, compute_delay: float = 0.0) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.concurrency = workers
        self._compute_delay = compute_delay
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._closed = False

    async def submit(self, route_key: str, parsed: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ServiceError(503, "service is shutting down")
        loop = asyncio.get_running_loop()
        # run_in_executor does not propagate contextvars: capture the trace
        # context here and re-enter it in the pool thread
        context = current_context()
        submitted = (time.time(), time.perf_counter()) if context is not None else None
        return await loop.run_in_executor(self._executor, self._call, parsed, context, submitted)

    def _call(self, parsed: Dict[str, Any], context=None, submitted=None) -> Dict[str, Any]:
        if submitted is not None:
            record_span(
                "queue_wait",
                start_s=submitted[0],
                duration_ms=(time.perf_counter() - submitted[1]) * 1000.0,
                context=context,
            )
        with activate_trace(context):
            return compute_election(parsed, compute_delay=self._compute_delay)

    def stats(self) -> Dict[str, Any]:
        return {"cache": refinement_cache.stats(), "search": search_statistics()}

    def observed_counters(self) -> Dict[str, Dict[str, int]]:
        """Search counters for /metrics (computation happens in-process)."""
        return {"search": dict(search_statistics()), "store": {}}

    def heat(self) -> List[Dict[str, Any]]:
        """No shards, no heat rows (uniform interface with the process backend)."""
        return []

    def queue_depth(self) -> int:
        """Computations accepted but not yet started (for /metrics)."""
        return self._executor._work_queue.qsize()

    def telemetry(self) -> Dict[str, int]:
        """Parent-side counters for /metrics (threads have no lifecycle)."""
        return {}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # wait=True joins the worker threads deterministically (they are not
        # daemons); cancel_futures drops queued-but-unstarted computations
        self._executor.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------- #
# process backend
# --------------------------------------------------------------------------- #
def _worker_stats(jobs_done: int) -> Dict[str, Any]:
    """This worker process's observability payload (also its retirement will)."""
    store = refinement_cache.store
    return {
        "pid": os.getpid(),
        "jobs": jobs_done,
        "cache": refinement_cache.stats(),
        "search": search_statistics(),
        "store": store.io_counters() if store is not None else {},
    }


def _job_extras(context, jobs_done: int) -> Dict[str, Any]:
    """The observability payload piggybacked on every job reply.

    ``stats`` is this worker's cumulative counter snapshot -- the parent
    keeps the latest per shard so ``/metrics`` aggregates search/store
    counters without a pipe round trip.  With a trace context the worker's
    spans for that trace ride along too (and leave this process's
    recorder), so one ``/trace/<id>`` tree shows parent and shard stages.
    """
    extras: Dict[str, Any] = {"stats": _worker_stats(jobs_done)}
    if context is not None:
        extras["spans"] = default_recorder.pop_trace(context[0])
    return extras


def _send_or_exit(conn, message) -> bool:
    """Send on the parent pipe; ``False`` (worker should exit quietly) if gone."""
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, ConnectionResetError, OSError):
        # the parent closed our pipe (e.g. a timed-out shutdown escalated to
        # terminate while we were computing): exit cleanly, not a traceback
        return False


def _shard_main(
    conn,
    store_path: Optional[str],
    compute_delay: float,
    recycle_after: int,
    hot_tier_bytes: int = 0,
    cache_admission: Optional[str] = None,
) -> None:
    """One shard worker: serve jobs off a pipe until recycled or told to exit."""
    bootstrap_worker(
        store_path,
        hot_tier_bytes=hot_tier_bytes,
        cache_admission=cache_admission,
    )
    jobs_done = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        op = message[0]
        if op == "exit":
            _send_or_exit(conn, ("bye", _worker_stats(jobs_done)))
            break
        if op == "ping":
            if not _send_or_exit(conn, ("ok", os.getpid())):
                break
            continue
        if op == "stats":
            if not _send_or_exit(conn, ("ok", _worker_stats(jobs_done))):
                break
            continue
        parsed = message[1]
        context = message[2] if len(message) > 2 else None
        try:
            with activate_trace(context):
                result = compute_election(parsed, compute_delay=compute_delay)
            reply = ("ok", result, _job_extras(context, jobs_done + 1))
        except ServiceError as error:
            # ship as plain data: the exception's two-argument constructor
            # does not round-trip through pickle
            reply = ("service_error", error.status, error.message, _job_extras(context, jobs_done + 1))
        except Exception as error:  # pragma: no cover - defensive
            reply = ("error", f"{type(error).__name__}: {error}")
        if not _send_or_exit(conn, reply):
            break
        jobs_done += 1
        if recycle_after and jobs_done >= recycle_after:
            # the parent counts too: it collects this final snapshot (so the
            # shard's cumulative counters survive recycling), joins us, and
            # spawns a successor on the next task
            _send_or_exit(conn, ("retired", _worker_stats(jobs_done)))
            break


class _Shard:
    """Parent-side handle of one shard: worker process + pipe + dispatcher.

    All pipe traffic is serialised by ``_lock`` (one outstanding message per
    worker); ``dispatcher`` is a dedicated single-thread executor so the
    event loop submits jobs without blocking and per-shard ordering is FIFO.

    The worker's lifecycle state (``down``/``idle``/``busy``/``closed``)
    advances only through the shared transition table in
    :mod:`repro.service.protocol` -- the same table ``repro verify``
    explores exhaustively -- so a lifecycle step the protocol forbids
    raises :class:`~repro.service.protocol.ProtocolViolation` here instead
    of hanging a dispatched job.
    """

    def __init__(
        self,
        index: int,
        *,
        context,
        store_path: Optional[str],
        compute_delay: float,
        recycle_after: int,
        hot_tier_bytes: int = 0,
        cache_admission: Optional[str] = None,
    ) -> None:
        self.index = index
        self._context = context
        self._store_path = store_path
        self._compute_delay = compute_delay
        self._recycle_after = recycle_after
        self._hot_tier_bytes = hot_tier_bytes
        self._cache_admission = cache_admission
        self._lock = threading.Lock()
        self.dispatcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )
        self._process = None
        self._conn = None
        self._jobs_since_spawn = 0
        self._closed = False
        #: Protocol lifecycle state (all transitions under ``_lock``, except
        #: the final ``close`` which is serialised by ``_closed``).
        self.state = WORKER_DOWN
        self.dispatched = 0
        self.spawns = 0
        self.recycles = 0
        self.crashes = 0
        #: Seconds this shard's pipe was occupied by jobs (the heat signal).
        self.busy_seconds = 0.0
        #: The live worker's latest cumulative counter snapshot, refreshed
        #: from the extras piggybacked on every job reply (no pipe traffic).
        self.last_snapshot: Dict[str, Any] = {}
        # cumulative counters inherited from cleanly retired workers (a
        # crashed worker's counters die with it)
        self.retired_jobs = 0
        self.retired_cache: Dict[str, int] = {}
        self.retired_search: Dict[str, int] = {}
        self.retired_store: Dict[str, int] = {}

    # -- lifecycle (all called with ``_lock`` held) --------------------- #
    def _spawn(self) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_main,
            args=(
                child_conn,
                self._store_path,
                self._compute_delay,
                self._recycle_after,
                self._hot_tier_bytes,
                self._cache_admission,
            ),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self._jobs_since_spawn = 0
        self.spawns += 1
        self.state = worker_transition(self.state, "spawn")

    def _discard(self, reason: str) -> None:
        """Drop the worker process; ``reason`` is the protocol event
        (``crash``/``retire``/``close``) that removes it."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._process is not None:
            if self._process.is_alive():
                self._process.terminate()
            self._process.join(timeout=_SHUTDOWN_TIMEOUT)
            self._process = None
        self.last_snapshot = {}
        self.state = worker_transition(self.state, reason)

    def _ensure_worker(self) -> None:
        if self._closed:
            raise ServiceError(503, "service is shutting down")
        if self._process is not None and not self._process.is_alive():
            # died between requests (a recycle exit is reaped eagerly in
            # call(), so an exited process found here crashed while idle)
            self.crashes += 1
            self._discard("crash")
        if self._process is None:
            self._spawn()

    # -- operations ----------------------------------------------------- #
    def call(self, parsed: Dict[str, Any], context=None, submitted=None):
        """Dispatch one job to this shard's worker; detect crashes, retry once.

        ``context`` is the request's trace context ``(trace_id, span_id)``:
        it crosses the pipe with the job so the worker's spans join the
        trace, and this (dispatcher-thread) side records the ``queue_wait``
        and per-attempt ``dispatch`` spans around the round trip.
        """
        if submitted is not None:
            record_span(
                "queue_wait",
                start_s=submitted[0],
                duration_ms=(time.perf_counter() - submitted[1]) * 1000.0,
                context=context,
                tags={"shard": self.index},
            )
        with self._lock:
            self.dispatched += 1
            for attempt in (1, 2):
                self._ensure_worker()
                self.state = worker_transition(self.state, "dispatch")
                dispatch_wall = time.time()
                dispatch_t0 = time.perf_counter()
                try:
                    self._conn.send(("job", parsed, context))
                    reply = self._conn.recv()
                except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                    self.busy_seconds += time.perf_counter() - dispatch_t0
                    self.crashes += 1
                    self._discard("crash")
                    if attempt == 2:
                        raise ServiceError(
                            503,
                            f"shard {self.index} worker crashed twice on one query",
                        ) from None
                    continue
                busy = time.perf_counter() - dispatch_t0
                self.busy_seconds += busy
                record_span(
                    "dispatch",
                    start_s=dispatch_wall,
                    duration_ms=busy * 1000.0,
                    context=context,
                    tags={"shard": self.index, "attempt": attempt},
                )
                reply = self._absorb_extras(reply)
                self.state = worker_transition(self.state, "reply")
                self._jobs_since_spawn += 1
                if self._recycle_after and self._jobs_since_spawn >= self._recycle_after:
                    # the worker sends a final stats snapshot and exits after
                    # its last job; absorb the snapshot and reap it now so
                    # its successor spawns on the next call
                    try:
                        if self._conn.poll(_SHUTDOWN_TIMEOUT):
                            farewell = self._conn.recv()
                            if farewell[0] == "retired":
                                self._absorb(farewell[1])
                    except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                        pass
                    self._process.join(timeout=_SHUTDOWN_TIMEOUT)
                    self._discard("retire")
                    self.recycles += 1
                return reply
        raise AssertionError("unreachable")  # pragma: no cover

    def _control(self, op: str, *, spawn: bool = False, timeout: float = _SHUTDOWN_TIMEOUT):
        """A non-job round trip (``ping``/``stats``); ``None`` if unanswerable.

        The shard lock is held for a job's whole round trip, so a busy
        shard would block a ``/stats`` probe for the rest of its
        computation -- acquire with a timeout instead and report nothing
        for shards that are mid-job (their retired counters still count).
        With ``spawn`` the worker is started on demand; spawn failures
        propagate (they mean process creation is broken, not that the
        worker crashed).
        """
        if not self._lock.acquire(timeout=timeout):
            return None
        try:
            if spawn:
                self._ensure_worker()
            elif self._closed or self._process is None or not self._process.is_alive():
                return None
            try:
                self._conn.send((op,))
                # holding the lock means the worker is idle (no job on the
                # pipe), so a healthy worker answers immediately; a poll
                # timeout means it is wedged (e.g. hung in bootstrap), and
                # the pipe now holds a pending reply nothing should read --
                # discard the worker rather than poison the next exchange
                if not self._conn.poll(_SHUTDOWN_TIMEOUT):
                    raise EOFError("control round trip timed out")
                return self._conn.recv()[1]
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                self.crashes += 1
                self._discard("crash")
                return None
        finally:
            self._lock.release()

    def ping(self) -> Optional[int]:
        """The live worker's PID, spawning it first if need be."""
        return self._control("ping", spawn=True)

    def snapshot(self, *, timeout: float = _STATS_TIMEOUT) -> Optional[Dict[str, Any]]:
        """The live worker's cache/search stats; ``None`` if dead or busy."""
        return self._control("stats", timeout=timeout)

    def _absorb_extras(self, reply):
        """Strip the observability extras off a job reply and apply them.

        Extras carry the worker's cumulative counter snapshot (kept as this
        shard's ``last_snapshot``) and, for traced jobs, the worker-side
        spans of the request's trace, absorbed into the parent's recorder.
        Returns the reply without the extras (the wire shape the backend's
        ``submit`` consumes).
        """
        if reply[0] == "ok" and len(reply) > 2:
            extras = reply[2]
            reply = reply[:2]
        elif reply[0] == "service_error" and len(reply) > 3:
            extras = reply[3]
            reply = reply[:3]
        else:
            return reply
        if isinstance(extras, dict):
            snapshot = extras.get("stats")
            if isinstance(snapshot, dict):
                self.last_snapshot = snapshot
            default_recorder.absorb(extras.get("spans"))
        return reply

    def _absorb(self, final_stats: Dict[str, Any]) -> None:
        """Fold a retiring worker's counters into this shard's cumulative totals."""
        self.retired_jobs += final_stats.get("jobs", 0)
        for totals, section in (
            (self.retired_cache, final_stats.get("cache", {})),
            (self.retired_search, final_stats.get("search", {})),
            (self.retired_store, final_stats.get("store", {})),
        ):
            for key, value in section.items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value

    def close(self) -> None:
        """Shut this shard down: graceful exit handshake, or terminate.

        The graceful path (send ``exit``, absorb the farewell, join) runs
        only when the shard lock could be acquired -- ``Connection`` is not
        safe for concurrent use, so if a dispatched job is still mid-pipe
        after the timeout the worker is terminated instead, which surfaces
        in the blocked ``call()`` as ``EOFError`` and (the shard now being
        closed) a clean 503.
        """
        self._closed = True
        acquired = self._lock.acquire(timeout=_SHUTDOWN_TIMEOUT)
        try:
            process, conn = self._process, self._conn
            if acquired:
                self._process = self._conn = None
                if process is not None and process.is_alive() and conn is not None:
                    try:
                        conn.send(("exit",))
                        if conn.poll(_SHUTDOWN_TIMEOUT):
                            farewell = conn.recv()
                            if farewell[0] == "bye":
                                self._absorb(farewell[1])
                    except (BrokenPipeError, ConnectionResetError, OSError, EOFError):
                        pass
                    process.join(timeout=_SHUTDOWN_TIMEOUT)
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=_SHUTDOWN_TIMEOUT)
            if acquired and conn is not None:
                conn.close()
        finally:
            # close is legal from every state (a busy worker is terminated;
            # its blocked caller surfaces a crash against the closed state)
            self.state = worker_transition(self.state, "close")
            if acquired:
                self._lock.release()
        self.dispatcher.shutdown(wait=True, cancel_futures=True)


class ProcessShardBackend(ComputeBackend):
    """Hash-sharded persistent worker processes (see the module docstring)."""

    name = "process"

    def __init__(
        self,
        *,
        shards: int,
        store_path: Optional[str] = None,
        compute_delay: float = 0.0,
        recycle_after: Optional[int] = None,
        start_method: Optional[str] = None,
        hot_tier_bytes: int = 0,
        cache_admission: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if recycle_after is None:
            recycle_after = DEFAULT_RECYCLE_AFTER
        if recycle_after < 1:
            raise ValueError("recycle_after must be at least 1")
        if start_method is None:
            # spawn: the parent respawns workers mid-serving while other
            # threads hold locks, which forking would copy in a locked state
            start_method = "spawn" if "spawn" in multiprocessing.get_all_start_methods() else None
        context = multiprocessing.get_context(start_method)
        self.concurrency = shards
        self.recycle_after = recycle_after
        self._shards = [
            _Shard(
                index,
                context=context,
                store_path=store_path,
                compute_delay=compute_delay,
                recycle_after=recycle_after,
                hot_tier_bytes=hot_tier_bytes,
                cache_admission=cache_admission,
            )
            for index in range(shards)
        ]
        self._closed = False
        # eagerly spawn and round-trip one worker: shards are otherwise
        # lazy, and a platform where process creation fails (blocked clone,
        # exhausted RLIMIT_NPROC, broken spawn) must fail *here*, where the
        # service's thread-backend fallback can catch it, not as a 500 on
        # the first query
        if self._shards[0].ping() is None:
            self.close()
            raise OSError("shard worker failed to start")

    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_for(self, route_key: str) -> int:
        """Which shard serves ``route_key`` (deterministic; see :func:`shard_index`)."""
        return shard_index(route_key, len(self._shards))

    def shard_pids(self) -> List[Optional[int]]:
        """Live worker PIDs per shard (spawning workers on demand); for tests/ops."""
        return [shard.ping() for shard in self._shards]

    async def submit(self, route_key: str, parsed: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ServiceError(503, "service is shutting down")
        shard = self._shards[self.shard_for(route_key)]
        loop = asyncio.get_running_loop()
        # capture the trace context for the dispatcher thread and the worker
        # process (contextvars cross neither boundary on their own)
        context = current_context()
        submitted = (time.time(), time.perf_counter()) if context is not None else None
        reply = await loop.run_in_executor(
            shard.dispatcher, shard.call, parsed, context, submitted
        )
        status = reply[0]
        if status == "ok":
            return reply[1]
        if status == "service_error":
            raise ServiceError(reply[1], reply[2])
        raise RuntimeError(f"shard worker error: {reply[1]}")

    def stats(self) -> Dict[str, Any]:
        """Aggregated cache/search counters plus a per-shard breakdown.

        Summing the shard workers' own ``refinement_cache``/search counters
        keeps backend-independent invariants checkable from ``/stats`` --
        e.g. a store-warm replay must show zero refinement passes no matter
        which processes did the work.  Counters of cleanly *retired*
        (recycled or exited) workers are folded in; unspawned shards
        contribute zeros and a crashed worker's counters die with it.  A
        shard that is *mid-job* reports only its retired counters (row
        ``alive: False``) instead of blocking this probe on its
        computation -- read ``/stats`` at a quiescent moment for exact
        totals.
        """
        cache_total: Dict[str, int] = {key: 0 for key in refinement_cache.stats()}
        search_total: Dict[str, int] = {key: 0 for key in search_statistics()}
        store_total: Dict[str, int] = {}
        per_shard: List[Dict[str, Any]] = []
        # one deadline shared by all shards: a fleet of busy shards costs
        # the probe ~1s total, not ~1s each
        deadline = time.monotonic() + _STATS_TIMEOUT
        for shard in self._shards:
            snapshot = shard.snapshot(timeout=max(0.0, deadline - time.monotonic()))
            row: Dict[str, Any] = {
                "shard": shard.index,
                "alive": snapshot is not None,
                "state": shard.state,
                "pid": snapshot["pid"] if snapshot else None,
                "jobs": (snapshot["jobs"] if snapshot else 0) + shard.retired_jobs,
                "dispatched": shard.dispatched,
                "spawns": shard.spawns,
                "recycles": shard.recycles,
                "crashes": shard.crashes,
                "busy_seconds": round(shard.busy_seconds, 6),
            }
            sections = [
                (cache_total, shard.retired_cache),
                (search_total, shard.retired_search),
                (store_total, shard.retired_store),
            ]
            if snapshot is not None:
                sections += [
                    (cache_total, snapshot["cache"]),
                    (search_total, snapshot["search"]),
                    (store_total, snapshot.get("store", {})),
                ]
            for totals, section in sections:
                for key, value in section.items():
                    if isinstance(value, int):
                        totals[key] = totals.get(key, 0) + value
            per_shard.append(row)
        return {
            "cache": cache_total,
            "search": search_total,
            "store": store_total,
            "shards": {
                "count": len(self._shards),
                "recycle_after": self.recycle_after,
                "spawns": sum(shard.spawns for shard in self._shards),
                "recycles": sum(shard.recycles for shard in self._shards),
                "crashes": sum(shard.crashes for shard in self._shards),
                "per_shard": per_shard,
            },
        }

    def queue_depth(self) -> int:
        """Jobs waiting on shard dispatchers, not yet on a pipe (for /metrics)."""
        return sum(shard.dispatcher._work_queue.qsize() for shard in self._shards)

    def telemetry(self) -> Dict[str, int]:
        """Parent-side shard counters for /metrics: no pipe round trips."""
        return {
            "shards": len(self._shards),
            "spawns": sum(shard.spawns for shard in self._shards),
            "recycles": sum(shard.recycles for shard in self._shards),
            "crashes": sum(shard.crashes for shard in self._shards),
            "dispatched": sum(shard.dispatched for shard in self._shards),
        }

    def heat(self) -> List[Dict[str, Any]]:
        """Per-shard load rows for /metrics: busy seconds, tasks, queue depth."""
        return [
            {
                "shard": shard.index,
                "busy_seconds": shard.busy_seconds,
                "dispatched": shard.dispatched,
                "queue_depth": shard.dispatcher._work_queue.qsize(),
            }
            for shard in self._shards
        ]

    def observed_counters(self) -> Dict[str, Dict[str, int]]:
        """Search/store counters for /metrics, summed from parent-side state.

        Uses the piggybacked per-job snapshots (``last_snapshot``) plus the
        retired workers' folded totals -- no pipe round trips, so a scrape
        never blocks on a busy shard; it lags it by at most one job.
        """
        search_total: Dict[str, int] = {}
        store_total: Dict[str, int] = {}
        for shard in self._shards:
            snapshot = shard.last_snapshot
            sections = [
                (search_total, shard.retired_search),
                (store_total, shard.retired_store),
                (search_total, snapshot.get("search", {})),
                (store_total, snapshot.get("store", {})),
            ]
            for totals, section in sections:
                for key, value in section.items():
                    if isinstance(value, int):
                        totals[key] = totals.get(key, 0) + value
        return {"search": search_total, "store": store_total}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()
