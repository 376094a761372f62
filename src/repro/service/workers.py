"""The election service's compute backend: one bounded thread pool.

The service's heavy work -- graph construction, partition refinement, the
ψ_PPE/ψ_CPPE joint searches -- runs off the event loop on a fixed-size
``ThreadPoolExecutor``, so the loop keeps accepting connections and serving
``/stats`` while searches run, and at most ``workers`` computations are in
flight; the rest queue.  Every computation runs
:func:`repro.service.service.compute_election` in this process, against the
process-wide refinement cache and the store attached to it.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict

from ..obs import activate as activate_trace
from ..obs import current_context, record_span
from .service import ServiceError, compute_election

__all__ = ["ThreadBackend"]


class ThreadBackend:
    """The bounded in-process pool: GIL-bound, zero start-up cost."""

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

    async def submit(self, parsed: Dict[str, Any]) -> Dict[str, Any]:
        """Compute one parsed query off the event loop; returns the response dict."""
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

    def queue_depth(self) -> int:
        """Computations accepted but not yet started (for /metrics)."""
        return self._executor._work_queue.qsize()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # wait=True joins the worker threads deterministically (they are not
        # daemons); cancel_futures drops queued-but-unstarted computations
        self._executor.shutdown(wait=True, cancel_futures=True)
