"""The flat-array (CSR) compute kernel shared by the hot paths.

Every quantitative claim of the paper funnels through three computations:
view-equivalence refinement (ψ_S, feasibility, the twin queries of Lemmas
2.8/3.6/4.6), the simple-path reachability checks behind ψ_PE (and ψ_PPE's
leader filter), and the joint common-sequence search behind ψ_PPE.  This
package is their common low-level substrate:

* :mod:`repro.kernel.csr` — the flat compressed-sparse-row encoding of a
  port-labeled graph (``offsets`` / ``neighbors`` / ``reverse_ports`` int
  arrays) plus array-level BFS.  Built lazily and memoised per graph via
  :meth:`repro.portgraph.graph.PortLabeledGraph.csr`; the view in turn
  memoises its graph's block-cut tree and BFS distance arrays
  (:meth:`CSRGraph.block_cut_tree`, :meth:`CSRGraph.distances_from`), so
  the runner's cache, which shares one view among equal graphs, makes warm
  sweeps skip block-cut construction and distance precomputation exactly
  as they skip refinement passes.
* :mod:`repro.kernel.refine` — partition refinement on CSR, one engine with
  two pass kinds: vector passes in whole-array numpy operations while many
  nodes change class, worklist passes that re-signature only the
  neighbourhood of the previous pass's splits once few do (and always
  without numpy).  Inverse indexes (class → members, per-depth unique-node
  lists) make the class queries O(1)/O(output).
* :mod:`repro.kernel.backend` — numpy detection and :func:`use_backend`, the
  in-process hook that forces one pass kind.  Results are byte-identical
  whichever kinds run; numpy stays an optional extra.  BFS, block-cut
  queries and message routing have a single python implementation.
* :mod:`repro.kernel.blockcut` — one DFS per graph labels every dart with
  its biconnected block, so "does port ``p`` at ``v`` start a simple path to
  the leader?" is one comparison of the dart's label with
  :meth:`BlockCutTree.block_toward`, an O(deg v) query with no per-leader
  set-up.

The kernel sits directly above :mod:`repro.portgraph` in the layer diagram;
:mod:`repro.views`, :mod:`repro.core` and :mod:`repro.sim` build on it.
"""

from .backend import active_backend, numpy_available, use_backend
from .blockcut import BlockCutTree
from .csr import CSRGraph, bfs_distances_csr, build_csr
from .refine import CSRPartitionRefinement, refinement_delta

__all__ = [
    "CSRGraph",
    "build_csr",
    "bfs_distances_csr",
    "CSRPartitionRefinement",
    "refinement_delta",
    "BlockCutTree",
    "active_backend",
    "numpy_available",
    "use_backend",
]

