"""Partition refinement: fast computation of view-equivalence classes.

For a port-labeled graph, two nodes satisfy ``B^h(u) = B^h(v)`` exactly when
they end up in the same class of the following refinement process:

* depth 0: nodes are classed by their degree;
* depth h: nodes are classed by the pair (their depth-``h-1`` class, the
  port-ordered tuple of ``(incoming port, neighbour's depth-(h-1) class)``).

This is the port-labeled analogue of colour refinement / the degree
refinement used by Yamashita and Kameda, and it decides truncated-view
equality in O((n + m) · h) time instead of materialising view trees of size
Δ^h.  Because refinement only ever splits classes, the process reaches a
fixpoint after at most ``n - 1`` refinements; classes of the fixpoint are
exactly the classes of equality of *infinite* views, which is what
feasibility of leader election depends on.

Since the kernel refactor the refinement itself runs on the graph's CSR view
(:mod:`repro.kernel.refine`): passes are *incremental* — after the first
sweep only nodes adjacent to classes that split are re-signatured — and the
engine maintains inverse indexes (class → members, per-depth unique-node
lists), so :meth:`ViewRefinement.class_of`, :meth:`ViewRefinement.unique_nodes`,
:meth:`ViewRefinement.twin_of` and
:meth:`ViewRefinement.first_depth_with_unique_node` are O(1)/O(output)
lookups instead of O(n) scans per call.  The partitions (and even the
canonical colour numbers) are identical to the classic full-sweep
refinement's.

The :class:`ViewRefinement` object computes depths lazily and caches them, so
a single instance can serve feasibility checks, ψ_S / ψ_PE computation and
all the "does this node have a twin?" queries of the lower-bound lemmas.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel.refine import CSRPartitionRefinement
from ..portgraph.graph import PortLabeledGraph

__all__ = ["ViewRefinement", "refine_views"]


class ViewRefinement:
    """Lazy, cached view-equivalence classes of one graph at every depth."""

    def __init__(self, graph: PortLabeledGraph) -> None:
        self._graph = graph
        # the engine is memoised on the graph instance, so the fingerprint
        # (which refines to the fixpoint) and every ViewRefinement of the
        # same instance share one set of partitions
        self._engine: CSRPartitionRefinement = graph.refinement_engine()

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> PortLabeledGraph:
        return self._graph

    @property
    def stable_depth(self) -> Optional[int]:
        """Smallest depth whose partition equals the infinite-view partition (if computed)."""
        return self._engine.stable_depth

    @property
    def passes(self) -> int:
        """Number of refinement passes performed so far.

        Each pass deepens the partition by one level (incrementally: only the
        neighbourhood of the previous pass's splits is re-signatured).  The
        counter only ever grows while new depths are being computed, so the
        runner's :class:`~repro.runner.cache.RefinementCache` uses it to
        certify that a repeated sweep re-used cached partitions instead of
        refining again.
        """
        return self._engine.passes

    # ------------------------------------------------------------------ #
    def _ensure_depth(self, depth: int) -> int:
        """Compute colours up to ``depth`` (or to the fixpoint, whichever is first).

        Returns the effective depth at which to read colours: ``depth`` itself
        or the stable depth if that is smaller.
        """
        return self._engine.ensure_depth(depth)

    def ensure_stable(self) -> int:
        """Refine to the fixpoint and return the stable depth."""
        return self._engine.ensure_stable()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def colors(self, depth: int) -> List[int]:
        """Colour of every node at ``depth`` (same colour <=> equal ``B^depth``)."""
        effective = self._ensure_depth(depth)
        return list(self._engine.colors_at(effective))

    def color(self, node: int, depth: int) -> int:
        effective = self._ensure_depth(depth)
        return self._engine.colors_at(effective)[node]

    def num_classes(self, depth: int) -> int:
        """Number of distinct ``B^depth`` values among the nodes."""
        effective = self._ensure_depth(depth)
        return self._engine.num_classes_at(effective)

    def classes(self, depth: int) -> Dict[int, List[int]]:
        """Mapping colour -> list of nodes with that colour at ``depth``."""
        effective = self._ensure_depth(depth)
        members = self._engine.members_at(effective)
        return {c: list(group) for c, group in enumerate(members)}

    def class_of(self, node: int, depth: int) -> List[int]:
        """All nodes whose ``B^depth`` equals that of ``node`` (including ``node``)."""
        effective = self._ensure_depth(depth)
        return list(self._engine.class_members(node, effective))

    def views_equal(self, u: int, v: int, depth: int) -> bool:
        """Whether ``B^depth(u) = B^depth(v)``."""
        effective = self._ensure_depth(depth)
        colors = self._engine.colors_at(effective)
        return colors[u] == colors[v]

    def has_unique_view(self, node: int, depth: int) -> bool:
        """Whether no other node shares ``node``'s ``B^depth``."""
        effective = self._ensure_depth(depth)
        return len(self._engine.class_members(node, effective)) == 1

    def unique_nodes(self, depth: int) -> List[int]:
        """Nodes whose ``B^depth`` is unique in the graph."""
        effective = self._ensure_depth(depth)
        return list(self._engine.unique_at(effective))

    def twin_of(self, node: int, depth: int) -> Optional[int]:
        """Some other node with the same ``B^depth`` as ``node``, or ``None``."""
        effective = self._ensure_depth(depth)
        group = self._engine.class_members(node, effective)
        if len(group) == 1:
            return None
        first = group[0]
        return group[1] if first == node else first

    def is_discrete(self) -> bool:
        """Whether the fixpoint partition is discrete (all infinite views distinct)."""
        return self.num_classes(self.ensure_stable()) == self._graph.num_nodes

    def first_depth_with_unique_node(self, max_depth: Optional[int] = None) -> Optional[int]:
        """Smallest depth at which some node has a unique view (``None`` if never).

        This is exactly ψ_S(G) when the graph is feasible (Proposition 2.1
        plus the map-based algorithm of Theorem 2.2's proof).
        """
        return self._engine.first_unique_depth(max_depth)

    def distinguishing_depth(self, u: int, v: int) -> Optional[int]:
        """Smallest depth at which the views of ``u`` and ``v`` differ (``None`` if never)."""
        depth = 0
        while True:
            if not self.views_equal(u, v, depth):
                return depth
            stable = self._engine.stable_depth
            if stable is not None and depth >= stable:
                return None
            depth += 1


def refine_views(graph: PortLabeledGraph) -> ViewRefinement:
    """Create a :class:`ViewRefinement` for ``graph`` (computation happens lazily)."""
    return ViewRefinement(graph)
