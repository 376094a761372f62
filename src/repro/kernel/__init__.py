"""The flat-array (CSR) compute kernel shared by the hot paths.

Every quantitative claim of the paper funnels through three computations:
view-equivalence refinement (ψ_S, feasibility, the twin queries of Lemmas
2.8/3.6/4.6), the simple-path reachability checks behind ψ_PE, and the joint
common-sequence searches behind ψ_PPE/ψ_CPPE.  This package is their common
low-level substrate:

* :mod:`repro.kernel.csr` — the flat compressed-sparse-row encoding of a
  port-labeled graph (``offsets`` / ``neighbors`` / ``reverse_ports`` int
  arrays) plus array-level BFS.  Built lazily and memoised per graph via
  :meth:`repro.portgraph.graph.PortLabeledGraph.csr`.
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
* :mod:`repro.kernel.blockcut` — one block-cut-tree (biconnected components)
  DFS per graph, answering every "does port ``p`` at ``v`` start a simple
  path to the leader?" query of ψ_PE without a per-removed-node BFS.
* :class:`GraphKernel` — the per-graph bundle of all of the above, stored in
  the runner's :class:`~repro.runner.cache.RefinementCache` entries so warm
  sweeps skip refinement *and* block-cut-tree construction.

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
    "GraphKernel",
    "active_backend",
    "numpy_available",
    "use_backend",
]


class GraphKernel:
    """Lazily-built kernel objects of one graph, memoised together.

    One instance per exact graph lives in each
    :class:`~repro.runner.cache.CacheEntry`, so every layer that asks the
    shared cache for kernel state (ψ_PE's block-cut queries, ψ_PPE/ψ_CPPE's
    distance-to-leader pruning, the sim engine's flat inboxes) reuses one
    CSR view, one block-cut tree and one BFS distance array per source.
    """

    __slots__ = ("graph", "_blockcut", "_distances")

    def __init__(self, graph) -> None:
        self.graph = graph
        self._blockcut = None
        self._distances = {}

    @classmethod
    def derived(cls, graph, base_kernel, *, topology_changed: bool) -> "GraphKernel":
        """A kernel for a delta-derived graph, carrying what stays valid.

        Selective invalidation of the memoised kernel objects: when the
        delta only relabeled ports (``topology_changed=False``, node handles
        and the edge set unchanged) the base's BFS distance arrays are pure
        topology facts and carry over verbatim, and the block-cut tree's
        O(n) DFS structure carries via :meth:`BlockCutTree.rebound` (its
        port queries read the new CSR at query time).  Any topology change
        drops both — they are rebuilt lazily on first use.
        """
        kernel = cls(graph)
        if not topology_changed:
            kernel._distances = dict(base_kernel._distances)
            if base_kernel._blockcut is not None:
                kernel._blockcut = base_kernel._blockcut.rebound(graph.csr())
        return kernel

    @property
    def csr(self) -> CSRGraph:
        """The graph's CSR view (memoised on the graph instance itself)."""
        return self.graph.csr()

    def block_cut_tree(self) -> BlockCutTree:
        """The graph's block-cut tree (built on first request)."""
        if self._blockcut is None:
            self._blockcut = BlockCutTree(self.csr)
        return self._blockcut

    def distances_from(self, source: int):
        """BFS hop distances from ``source`` to every node (memoised array)."""
        cached = self._distances.get(source)
        if cached is None:
            cached = bfs_distances_csr(self.csr, source)
            self._distances[source] = cached
        return cached

    def estimated_bytes(self) -> int:
        """Rough retained footprint of the kernel objects (bytes).

        The CSR arrays are counted exactly; the block-cut tree is charged at
        a flat per-node rate (its arrays and maps are all O(n)).  Feeds the
        runner cache's eviction accounting.
        """
        total = self.graph.csr().nbytes()
        if self._blockcut is not None:
            total += 48 * self.graph.num_nodes
        # a snapshot: a pool thread may memoise another source meanwhile
        for distances in list(self._distances.values()):
            total += len(distances) * distances.itemsize
        return total
