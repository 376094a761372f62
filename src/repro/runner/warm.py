"""The ``repro warm`` pipeline: precompute a sweep into the artifact store.

The serving story of this reproduction is "never compute the same thing
twice": the store holds every refinement and ψ_Z search any process ever
performed, and the service warm-starts from it.  What was missing is a way
to *front-load* that store before launch -- run a corpus once, offline,
with the runner's multiprocessing fan-out, so the first production request
of every popular graph is already a store hit.  :func:`warm_sweep` is that
pipeline.

Interop with the batch service is deliberate and exact:

* **Same identity.**  The sweep id is the same content digest the batch
  coordinator computes for a declarative ``POST /elections`` sweep: the
  item payloads come from :func:`repro.service.batch.sweep_items`, as in
  :func:`~repro.service.batch.expand_sweep`, and the id from
  :func:`~repro.service.batch.sweep_digest` -- so warming a corpus and
  then POSTing the same corpus to a service on the same store is one
  sweep with one progress record.
* **Same progress record.**  Progress is saved as a
  :class:`~repro.service.batch.SweepStatus` document with the store's
  :meth:`~repro.store.store.ArtifactStore.put_sweep` after every item, so
  ``GET /sweeps/<id>`` on a service sharing the store reports the warm
  run's progress live, and an interrupted warm resumes where it stopped
  (``resume=True`` skips every item already marked ok).
* **Same artifacts.**  Items evaluate through the very same
  :func:`~repro.runner.runner.evaluate_graph` write-through path as the
  service, so results are byte-identical however they are reached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from .runner import ExperimentRunner
from .spec import SweepSpec

__all__ = ["WarmReport", "warm_sweep"]

#: Per-item progress callback: ``(done, total, label, status)``.
ProgressFn = Callable[[int, int, str, str], None]


@dataclass(frozen=True)
class WarmReport:
    """What one :func:`warm_sweep` run did."""

    sweep_id: str
    total: int
    #: Items finished across all runs of this sweep (resume included).
    completed: int
    #: Items computed by *this* run.
    warmed: int
    #: Items skipped because a previous run already finished them.
    skipped: int
    errors: int
    elapsed: float
    jobs: int
    #: ``ArtifactStore.stats()`` of the warmed store after the run.
    store_stats: Dict[str, int]
    #: ``ArtifactStore.compact()`` summary when compaction was requested.
    compaction: Optional[Dict[str, int]] = None


def warm_sweep(
    sweep: SweepSpec,
    store_path: str,
    *,
    shared: Optional[Dict[str, Any]] = None,
    jobs: int = 1,
    resume: bool = True,
    compact: bool = False,
    progress: Optional[ProgressFn] = None,
) -> WarmReport:
    """Precompute every item of ``sweep`` into the store at ``store_path``.

    ``shared`` carries the request options (``tasks`` / ``max_depth`` /
    ``max_states``) into the item payloads for identity purposes -- pass
    the same values a declarative service sweep would, or nothing for the
    service defaults.  ``jobs > 1`` fans items out over the runner's
    worker-process pool (each worker reads and writes through the same
    store).  With ``resume`` (the default), items a previous run marked ok
    are skipped -- their results are already on disk.  ``compact=True``
    runs a store compaction after the sweep and reports its summary.
    """
    # imported here: the service package imports the runner package
    from ..service.batch import SweepStatus, sweep_digest, sweep_items
    from ..store import ArtifactStore

    if not sweep.graphs:
        raise ValueError("nothing to warm: the sweep has no graphs")
    total = len(sweep.graphs)
    sweep_id = sweep_digest(sweep_items(sweep.graphs, shared or {}))
    store = ArtifactStore(store_path)
    previous = store.get_sweep(sweep_id) if resume else None
    marks = (previous or {}).get("items")
    if not isinstance(marks, str) or len(marks) != total:
        marks = ""
    done = {index for index, mark in enumerate(marks) if mark == "+"}
    pending = [index for index in range(total) if index not in done]

    status = SweepStatus(
        sweep_id=sweep_id,
        total=total,
        window=max(1, jobs),
        completed=len(done),
        ok=len(done),
        item_status=["ok" if index in done else "pending" for index in range(total)],
    )
    started = time.perf_counter()
    warmed = 0
    errors = 0
    if pending:
        store.put_sweep(sweep_id, status.to_dict())
        runner = ExperimentRunner(workers=jobs, store_path=store_path)
        subset = replace(sweep, graphs=tuple(sweep.graphs[index] for index in pending))
        for subset_index, item_status, payload in runner.stream(subset):
            index = pending[subset_index]
            status.apply("item_resolved")
            status.completed += 1
            if item_status == "ok":
                status.ok += 1
                warmed += 1
            else:
                status.errors += 1
                errors += 1
            status.item_status[index] = item_status
            store.put_sweep(sweep_id, status.to_dict())
            if progress is not None:
                progress(
                    status.completed,
                    status.total,
                    sweep.graphs[index].label,
                    item_status,
                )
    status.apply("completed")
    store.put_sweep(sweep_id, status.to_dict())
    compaction = store.compact() if compact else None
    return WarmReport(
        sweep_id=sweep_id,
        total=total,
        completed=status.completed,
        warmed=warmed,
        skipped=len(done),
        errors=errors,
        elapsed=time.perf_counter() - started,
        jobs=jobs,
        store_stats=store.stats(),
        compaction=compaction,
    )
