"""The batched experiment runner: one sweep in, one deterministic table out.

The runner expands a :class:`~repro.runner.spec.SweepSpec` into one *job per
graph*, evaluates every job (feasibility, the requested ψ_Z indices, optional
view-class profiles) and streams the records in spec order, whatever the
completion order; :meth:`ExperimentRunner.run` collects that one stream into
a :class:`~repro.runner.results.ResultTable`.

Within a job all queries share a single memoised
:class:`~repro.views.refinement.ViewRefinement` obtained from the
process-wide :data:`~repro.runner.cache.refinement_cache`, so a graph that
appears in several sweeps (or several times in one sweep) is refined at most
once per process.  With ``workers > 1`` jobs fan out over a
``multiprocessing`` pool in deterministic chunks; each worker process keeps
its own refinement cache, and because job evaluation is pure, parallel and
serial runs of the same spec produce byte-identical tables.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.election_index import SearchLimitExceeded, election_index, search_statistics
from ..core.feasibility import is_feasible
from ..obs import span as obs_span
from ..store import ArtifactStore
from .cache import CacheEntry, refinement_cache
from .results import ResultTable
from .spec import GraphSpec, SweepSpec

__all__ = [
    "ExperimentRunner",
    "RunReport",
    "attach_store_path",
    "evaluate_graph",
    "evaluate_graph_spec",
]


def evaluate_graph(
    graph,
    sweep: SweepSpec,
    *,
    label: Optional[str] = None,
    entry: Optional[CacheEntry] = None,
) -> Dict[str, Any]:
    """Evaluate one built graph into a flat result record.

    Fetches the graph's entry from the process-wide refinement cache once,
    unless the caller already holds it and passes it as ``entry`` (a delta
    item's, from :meth:`~repro.runner.cache.RefinementCache.delta_entry`),
    and answers every requested query against that one refinement (the
    ψ_PE/ψ_PPE block-cut tree and the ψ_PPE distances come from the
    graph's CSR view, which a hit shares).  Feasibility, the ψ_Z values
    (keyed by their search parameters) and the view-class profiles (keyed
    by depth) are memoised on the entry, so replaying a sweep skips the
    PPE joint searches as well as the refinement passes; with a store
    attached the entry's memo may arrive warm from disk, and the computed
    outcome is written through from the same entry at the end.  A PPE
    search that exceeds ``sweep.max_states`` records ``None`` for the index
    and lists the task under ``search_limited`` instead of aborting the
    whole sweep (S, PE and CPPE run no search).  Each task is computed on
    its own, so an outcome depends only on the graph, the task and the
    budgets, not on which other tasks the memo already holds.
    """
    with obs_span("evaluate_graph") as profile_span:
        return _evaluate_graph_traced(graph, sweep, label, entry, profile_span)


def _cheap_counters() -> Dict[str, int]:
    """Point-read counters only -- no cache scan, no store directory walk --
    so a traced warm evaluation stays within the tracing-overhead budget.  (The
    span's ``refinement_passes`` tag is read off the evaluated entry's own
    engine instead: the cache-wide ledger sums every live entry.)"""
    counters = dict(search_statistics())
    counters["cache_hits"] = refinement_cache.hits
    counters["cache_misses"] = refinement_cache.misses
    counters["store_hits"] = refinement_cache.store_hits
    counters["store_misses"] = refinement_cache.store_misses
    store = refinement_cache.store
    if store is not None:
        io = store.io_counters()
        counters["store_bytes_read"] = io["bytes_read"]
        counters["store_bytes_written"] = io["bytes_written"]
    else:
        counters["store_bytes_read"] = 0
        counters["store_bytes_written"] = 0
    return counters


def _evaluate_graph_traced(graph, sweep: SweepSpec, label, entry, profile_span) -> Dict[str, Any]:
    if profile_span.recording:
        before = _cheap_counters()
    if entry is None:
        entry = refinement_cache.entry(graph)
    refinement = entry.refinement
    # creating an entry runs no pass (engine construction and store
    # warm-start are pass-free), so this delta is this evaluation's work
    passes_before = refinement.passes
    memo_size_before = len(entry.memo)
    feasible = entry.memo.get(("feasible",))
    if feasible is None:
        feasible = is_feasible(graph, refinement=refinement)
        entry.memo[("feasible",)] = feasible
    record: Dict[str, Any] = {
        "graph": graph.name if label is None else label,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "max_degree": graph.max_degree,
        "feasible": feasible,
    }
    limited: List[str] = []
    for task in sweep.tasks:
        memo_key = ("psi", task.value, sweep.max_depth, sweep.max_states)
        outcome = entry.memo.get(memo_key)
        if outcome is None:
            try:
                outcome = ("ok", election_index(
                    task,
                    graph,
                    refinement=refinement,
                    max_depth=sweep.max_depth,
                    max_states=sweep.max_states,
                ))
            except SearchLimitExceeded:
                outcome = ("limited", None)
            entry.memo[memo_key] = outcome
        status, value = outcome
        if status == "limited":
            limited.append(task.value)
        record[f"psi_{task.value}"] = value
    for depth in sweep.profile_depths:
        profile = entry.memo.get(("profile", depth))
        if profile is None:
            profile = (refinement.num_classes(depth), len(refinement.unique_nodes(depth)))
            entry.memo[("profile", depth)] = profile
        record[f"classes_at_{depth}"], record[f"unique_at_{depth}"] = profile
    if sweep.tasks or sweep.profile_depths:
        record["search_limited"] = ",".join(limited)
    if refinement_cache.store is not None and len(entry.memo) > memo_size_before:
        # write through only when this evaluation computed something new --
        # a fully warm replay (every answer memoised, possibly straight from
        # the store) skips the record re-encode and disk compare entirely
        refinement_cache.persist(entry)
    if profile_span.recording:
        after = _cheap_counters()
        tags = {key: after[key] - before[key] for key in after}
        tags["refinement_passes"] = refinement.passes - passes_before
        tags["search_states"] = tags.pop("states")
        tags["search_cells"] = tags.pop("cells")
        tags["graph"] = record["graph"]
        tags["n"] = graph.num_nodes
        profile_span.add_tags(tags)
    return record


def evaluate_graph_spec(spec: GraphSpec, sweep: SweepSpec) -> Dict[str, Any]:
    """Evaluate one graph of a sweep into a flat result record (see :func:`evaluate_graph`)."""
    return evaluate_graph(spec.build(), sweep, label=spec.label)


def _evaluate_guarded(
    job: Tuple[int, GraphSpec, SweepSpec]
) -> Tuple[int, str, Any]:
    """The runner's job: a bad graph fails its *item*, not the sweep.

    Batch sweeps mix arbitrary client-supplied specs, where one invalid
    parameter set (caught as ``ValueError`` by the builders) must surface as
    a per-item error record while the rest of the stream proceeds.
    """
    index, spec, sweep = job
    try:
        return index, "ok", evaluate_graph_spec(spec, sweep)
    except ValueError as error:
        return index, "error", f"{spec.label}: {error}"


def attach_store_path(store_path: str) -> None:
    """Back the process-wide refinement cache with the store at ``store_path``.

    Idempotent per path; a different path replaces the attached store.  Also
    the initializer of the runner's worker pool, so every worker process
    reads and writes through the same on-disk store -- which is what lets
    the fan-out ship identity-addressed *results* between processes instead
    of recomputing them in each.
    """
    current = refinement_cache.store
    resolved = os.path.abspath(store_path)
    if current is None or current.root != resolved:
        refinement_cache.attach_store(ArtifactStore(resolved))


@dataclass(frozen=True)
class RunReport:
    """A finished sweep: the table plus execution metadata.

    Only :attr:`table` is deterministic; :attr:`elapsed` and
    :attr:`cache_stats` describe this particular execution.  For parallel
    runs ``cache_stats`` reflects the parent process only -- worker caches
    live and die with their processes.
    """

    table: ResultTable
    elapsed: float
    workers: int
    cache_stats: Dict[str, int]
    #: Stats of the attached artifact store, when the runner was given one
    #: (parent-process handle only, like ``cache_stats``).
    store_stats: Optional[Dict[str, int]] = None


class ExperimentRunner:
    """Runs :class:`SweepSpec` sweeps serially or across worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` (the default) evaluates in-process
        and is what populates the long-lived refinement cache of the calling
        process.
    store_path:
        Directory of a persistent :class:`~repro.store.store.ArtifactStore`.
        When given, the parent process *and* every worker process attach the
        store to their refinement cache: jobs warm-start from records any
        earlier process (or an earlier job of this very sweep) persisted,
        and write their own results through, so the fan-out exchanges
        artifacts on disk, each named by its graph's identity key, instead
        of recomputing per process.
    """

    def __init__(self, *, workers: int = 1, store_path: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._workers = workers
        self._store_path = store_path

    @property
    def workers(self) -> int:
        return self._workers

    def run(self, sweep: SweepSpec) -> RunReport:
        """Evaluate the sweep and return the (deterministically ordered) report.

        Collects :meth:`stream`: the first item whose graph cannot be built
        raises ``ValueError`` with its error message, and the rest of the
        sweep is abandoned.
        """
        started = time.perf_counter()
        records = []
        with closing(self.stream(sweep)) as items:
            for _index, status, payload in items:
                if status != "ok":
                    raise ValueError(payload)
                records.append(payload)
        table = ResultTable.from_records(records)
        elapsed = time.perf_counter() - started
        store = refinement_cache.store
        return RunReport(
            table=table,
            elapsed=elapsed,
            workers=self._workers,
            cache_stats=refinement_cache.stats(),
            store_stats=store.stats() if store is not None else None,
        )

    def stream(self, sweep: SweepSpec) -> Iterator[Tuple[int, str, Any]]:
        """Evaluate the sweep lazily, yielding ``(index, status, payload)``.

        Items arrive in spec order as they complete -- serially one by one,
        with ``workers > 1`` through ``pool.imap`` (order-preserving, so the
        stream is deterministic either way).  ``status`` is ``"ok"`` with the
        flat result record, or ``"error"`` with a message for a graph whose
        construction failed; a bad item does not abort the stream.  This is
        the one fan-out behind :meth:`run`, the ``sweep`` / ``bench --batch``
        CLI streaming modes and ``repro warm``.
        """
        if self._store_path is not None:
            attach_store_path(self._store_path)
        # each job carries only the evaluation settings, not the whole graph
        # list -- otherwise a G-graph parallel sweep pickles O(G^2) spec data
        settings = replace(sweep, graphs=())
        jobs = [(index, spec, settings) for index, spec in enumerate(sweep.graphs)]
        if self._workers == 1 or len(jobs) <= 1:
            for job in jobs:
                yield _evaluate_guarded(job)
            return
        # about four chunks per worker keeps scheduling balanced without
        # drowning small sweeps in IPC
        chunk = max(1, len(jobs) // (self._workers * 4))
        with multiprocessing.Pool(
            processes=self._workers,
            initializer=attach_store_path if self._store_path is not None else None,
            initargs=(self._store_path,),
        ) as pool:
            yield from pool.imap(_evaluate_guarded, jobs, chunksize=chunk)
