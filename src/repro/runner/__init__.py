"""Batched experiment runner with shared refinement caching.

This subsystem turns the ad-hoc loops of the benchmark scripts into data:

* :mod:`repro.runner.cache` -- a process-wide LRU of memoised
  :class:`~repro.views.refinement.ViewRefinement` objects keyed on the
  graph itself (exact labeled equality), shared by feasibility checks,
  ψ_Z index computation and the lower-bound twin queries;
* :mod:`repro.runner.spec` -- declarative, picklable sweep specifications
  (graph families x tasks x depths);
* :mod:`repro.runner.runner` -- the :class:`ExperimentRunner`: one stream
  of per-graph records in spec order, evaluated in-process or over
  ``multiprocessing`` workers (each attached to the runner's artifact
  store); its tables collect that stream;
* :mod:`repro.runner.results` -- byte-deterministic JSON/CSV/text tables;
* :mod:`repro.runner.warm` -- the ``repro warm`` precompute pipeline:
  front-load a corpus into the artifact store with the same sweep identity
  and progress records as the batch service, resumably.

See the "runner" section of ``DESIGN.md`` for the data flow and the
``bench`` subcommand of :mod:`repro.cli` for the command-line entry point.
"""

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
    attach_store_path,
    evaluate_graph,
    evaluate_graph_spec,
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
    "evaluate_graph",
    "evaluate_graph_spec",
]
