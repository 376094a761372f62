"""repro: reproduction of "Four Shades of Deterministic Leader Election in Anonymous Networks".

The package implements, in pure Python:

* the anonymous port-labeled network model and the LOCAL-model round simulator,
* views (explicit trees and fast partition refinement),
* the four leader-election tasks S / PE / PPE / CPPE, their validators and
  exact election indices ψ_Z(G),
* the algorithms-with-advice framework (oracles, bit-exact advice strings,
  the paper's upper-bound algorithm and the universal map-based solvers),
* the three lower-bound graph families G_{Δ,k}, U_{Δ,k}, J_{µ,k},
* analysis utilities used by the benchmark harness that regenerates every
  quantitative claim of the paper,
* a persistent artifact store named by graph identity (``repro.store``) and an
  async JSON/HTTP query service (``repro.service``, the ``serve`` CLI
  subcommand) so computed feasibility and election indices outlive the
  process and serve concurrent clients.

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record.
"""

from ._version import __version__
from .core import (
    LEADER,
    NON_LEADER,
    ElectionOutcome,
    Task,
    all_election_indices,
    complete_port_path_election_index,
    election_index,
    is_feasible,
    port_election_index,
    port_path_election_index,
    selection_index,
    validate,
    validate_outcome,
)
from .portgraph import GraphBuilder, PortLabeledGraph
from .views import ViewRefinement, augmented_view, refine_views

__all__ = [
    "__version__",
    "PortLabeledGraph",
    "GraphBuilder",
    "ViewRefinement",
    "refine_views",
    "augmented_view",
    "Task",
    "LEADER",
    "NON_LEADER",
    "ElectionOutcome",
    "is_feasible",
    "selection_index",
    "port_election_index",
    "port_path_election_index",
    "complete_port_path_election_index",
    "election_index",
    "all_election_indices",
    "validate",
    "validate_outcome",
]
