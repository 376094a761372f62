"""Async query service over the election pipeline (``repro serve``).

The serving subsystem sits at the very top of the layer diagram: HTTP in,
artifacts out.

* :mod:`repro.service.service` -- :class:`ElectionService`: parses queries,
  coalesces identical in-flight requests onto one future, runs cold
  computations on a bounded thread pool off the event loop, and reads/writes
  through the persistent :mod:`repro.store` via the shared refinement cache.
* :mod:`repro.service.batch` -- :class:`BatchCoordinator`: whole sweeps per
  request (``POST /elections``): item lists, NDJSON bodies or declarative
  corpus/grid sweep specs, streamed back as NDJSON in item order under a
  bounded in-flight window, with ``GET /sweeps/<id>`` progress records
  persisted next to the artifact store.
* :mod:`repro.service.workers` -- :class:`ThreadBackend`, the bounded
  thread pool every computation runs on, off the event loop.
* :mod:`repro.service.server` -- :class:`ElectionServer`: a dependency-free
  asyncio HTTP/1.1 front end routing the endpoints above, plus
  :func:`run_server`, the blocking entry point behind the ``serve`` CLI
  subcommand.

The service returns byte-identical indices and advice to the in-process API
for the same graphs -- every answer is a pure function of the graph, and the
service is only plumbing around the same cache entries.  Batch streams make
the same promise per item, modulo the documented volatile timing fields
(which they simply omit).
"""

from .batch import BatchCoordinator, expand_sweep
from .server import ElectionServer, run_server
from .service import ElectionService, ServiceError, compute_election, deterministic_response
from .workers import ThreadBackend

__all__ = [
    "BatchCoordinator",
    "ElectionServer",
    "ElectionService",
    "ServiceError",
    "ThreadBackend",
    "compute_election",
    "deterministic_response",
    "expand_sweep",
    "run_server",
]
