"""Batched experiment runner with shared refinement caching.

This subsystem turns the ad-hoc loops of the benchmark scripts into data:

* :mod:`repro.runner.cache` -- a process-wide LRU of memoised
  :class:`~repro.views.refinement.ViewRefinement` objects keyed on the
  canonical graph fingerprint, shared by feasibility checks, ψ_Z index
  computation and the lower-bound twin queries;
* :mod:`repro.runner.spec` -- declarative, picklable sweep specifications
  (graph families x tasks x depths);
* :mod:`repro.runner.runner` -- the :class:`ExperimentRunner` that fans a
  sweep out over ``multiprocessing`` workers with chunked scheduling and
  deterministic result ordering;
* :mod:`repro.runner.results` -- byte-deterministic JSON/CSV/text tables;
* :mod:`repro.runner.warm` -- the ``repro warm`` precompute pipeline:
  front-load a corpus into the artifact store with the same sweep identity
  and progress records as the batch service, resumably;
* :mod:`repro.runner.bootstrap` -- the worker-process initializer
  (:func:`attach_store_path`) of the runner's ``multiprocessing`` pool.

See the "runner" section of ``DESIGN.md`` for the data flow and the
``bench`` subcommand of :mod:`repro.cli` for the command-line entry point.
"""

from .bootstrap import attach_store_path, bootstrap_worker
from .cache import (
    CacheEntry,
    RefinementCache,
    refinement_cache,
    shared_refinement,
)
from .results import ResultTable
from .runner import (
    ExperimentRunner,
    RunReport,
    evaluate_graph,
    evaluate_graph_spec,
    run_sweep,
)
from .spec import GraphSpec, SweepSpec, graph_kinds, sized_graph_kinds
from .warm import WarmReport, warm_sweep

__all__ = [
    "WarmReport",
    "warm_sweep",
    "CacheEntry",
    "RefinementCache",
    "refinement_cache",
    "shared_refinement",
    "GraphSpec",
    "SweepSpec",
    "graph_kinds",
    "sized_graph_kinds",
    "ResultTable",
    "ExperimentRunner",
    "RunReport",
    "attach_store_path",
    "bootstrap_worker",
    "evaluate_graph",
    "evaluate_graph_spec",
    "run_sweep",
]
